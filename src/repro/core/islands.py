"""The island mapping between sensor values and menu entries (§4.2).

This is the algorithmic heart of the paper.  Because "the sensor values
are not linear in the measurement range", a naive linear mapping from
sensor value to entry would cram many entries into a small hand movement
near the body and stretch few entries over a large movement far away.  The
authors instead:

1. choose how many entities lie in the data structure,
2. distribute the entities *equally over the scrollable distance*,
3. compute the expected sensor value for each entity's distance by
   inserting it into the fitted sensor function (Figure 5),
4. define **islands** around those computed values — intervals in which
   the entity is selected — that "do not cover the complete spectrum of
   possible values": between islands no selection changes, which both
   debounces the selection and gives "the perception that the entries are
   equally spaced on the complete scrollable distance".

:func:`build_island_map` implements exactly that construction against the
simulated GP2D120 + ADC chain; alternative :class:`Placement` strategies
exist for the ablation benchmarks (what happens *without* the paper's
design choices).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.hardware.adc import ADC
    from repro.sensors.gp2d120 import GP2D120

__all__ = ["Placement", "Island", "IslandMap", "build_island_map"]


class Placement(Enum):
    """How entry positions are distributed over the sensor range."""

    #: The paper's design: equal spacing in *distance*, islands with gaps.
    EQUAL_DISTANCE = "equal-distance"
    #: Naive linear mapping in raw sensor value (ablation): equal spacing
    #: in ADC code, so perceived spacing is badly non-uniform.
    EQUAL_CODE = "equal-code"
    #: Equal distance spacing but islands abut with no gaps (ablation):
    #: boundary readings flicker between entries.
    FULL_COVERAGE = "full-coverage"


@dataclass(frozen=True)
class Island:
    """One selection interval in raw-ADC-code space.

    Attributes
    ----------
    slot:
        Position index, 0 = nearest to the body (lowest distance of the
        usable range, i.e. the *highest* codes).
    code_low, code_high:
        Inclusive ADC code interval selecting this slot.
    center_code:
        The computed expected code at the slot's center distance.
    center_distance_cm:
        The distance the slot was placed at.
    """

    slot: int
    code_low: int
    code_high: int
    center_code: int
    center_distance_cm: float

    def __post_init__(self) -> None:
        if self.code_low > self.code_high:
            raise ValueError(
                f"island {self.slot}: code_low {self.code_low} > "
                f"code_high {self.code_high}"
            )

    @property
    def width_codes(self) -> int:
        """Number of ADC codes the island spans."""
        return self.code_high - self.code_low + 1

    def contains(self, code: int) -> bool:
        """Whether a raw code falls inside this island."""
        return self.code_low <= code <= self.code_high


class IslandMap:
    """An ordered set of islands with O(log n) code lookup.

    Slots are ordered by distance (slot 0 nearest the body); since the
    sensor output falls with distance, slot 0 owns the highest codes.

    A map is read-only (frozen islands in tuples and a read-only slot
    mapping), so a firmware shares one map between every chunk page with
    the same entry count.
    """

    def __init__(self, islands: list[Island], placement: Placement) -> None:
        if not islands:
            raise ValueError("an island map needs at least one island")
        self.placement = placement
        self.islands: tuple[Island, ...] = tuple(
            sorted(islands, key=lambda isl: isl.code_low)
        )
        # Lookup tables: ``bisect_right(_lows, code)`` is one past the
        # island whose low is the largest not above ``code``, so
        # ``_highs`` and ``_slots`` are indexed from 1, with a sentinel
        # at 0 that no code is <= (a code below every island).
        self._lows = tuple(isl.code_low for isl in self.islands)
        self._highs = (-math.inf, *(isl.code_high for isl in self.islands))
        self._slots = (None, *(isl.slot for isl in self.islands))
        self._by_slot = MappingProxyType(
            {isl.slot: isl for isl in self.islands}
        )
        if len(self._by_slot) != len(self.islands):
            raise ValueError("duplicate slot numbers in island map")
        for earlier, later in zip(self.islands, self.islands[1:]):
            if earlier.code_high >= later.code_low:
                raise ValueError(
                    f"islands overlap: slot {earlier.slot} "
                    f"[{earlier.code_low},{earlier.code_high}] and slot "
                    f"{later.slot} [{later.code_low},{later.code_high}]"
                )

    def __len__(self) -> int:
        return len(self.islands)

    @property
    def n_slots(self) -> int:
        """Number of selectable positions."""
        return len(self.islands)

    def lookup(self, code: int) -> Optional[int]:
        """Slot owning ``code``, or ``None`` when the code lies in a gap.

        ``None`` is the mechanism behind "no selection or change happens if
        the device is held in a distance between two of those islands":
        the firmware simply keeps the previous selection.
        """
        i = bisect.bisect_right(self._lows, code)
        return self._slots[i] if code <= self._highs[i] else None

    def island_for_slot(self, slot: int) -> Island:
        """The island of a given slot."""
        try:
            return self._by_slot[slot]
        except KeyError:
            raise KeyError(f"no island for slot {slot}") from None

    def center_distance(self, slot: int) -> float:
        """Distance (cm) at the center of a slot — the user's aim point."""
        return self.island_for_slot(slot).center_distance_cm

    def distance_tolerance(self, slot: int, sensor: GP2D120) -> float:
        """Half-width of the slot in *distance* terms (cm).

        How far the hand may stray from the aim point while staying inside
        the island; this is the effective target width ``W`` for Fitts's
        law analysis of the technique.
        """
        island = self.island_for_slot(slot)
        lsb = 5.0 / 1024.0  # approximate; exact value irrelevant for tolerance
        v_low = island.code_low * lsb
        v_high = (island.code_high + 1) * lsb
        try:
            d_far = sensor.distance_for_voltage(max(v_low, 1e-6))
            d_near = sensor.distance_for_voltage(v_high)
        except ValueError:
            return 0.0
        return abs(d_far - d_near) / 2.0

    def coverage_fraction(self) -> float:
        """Fraction of the mapped code span covered by islands (not gaps)."""
        total = self.islands[-1].code_high - self.islands[0].code_low + 1
        covered = sum(isl.width_codes for isl in self.islands)
        return covered / total

    def distance_spacings(self) -> np.ndarray:
        """Gaps between consecutive slot center distances, in cm.

        For the paper's placement these are all equal — the "perception
        that the entries are equally spaced".
        """
        centers = np.array(
            [self.center_distance(slot) for slot in range(self.n_slots)]
        )
        return np.abs(np.diff(centers))


def build_island_map(
    sensor: GP2D120,
    adc: ADC,
    n_entries: int,
    range_cm: tuple[float, float] = (5.0, 28.0),
    island_fill: float = 0.62,
    placement: Placement = Placement.EQUAL_DISTANCE,
) -> IslandMap:
    """Construct the sensor-value→entry mapping of Section 4.2.

    Parameters
    ----------
    sensor:
        The (calibrated) sensor whose fitted curve converts distances to
        expected voltages.  An ideal (noise-free) transfer function is
        used, mirroring the paper's use of the fitted Figure 5 curve.
    adc:
        The converter, for voltage→code conversion.
    n_entries:
        "How many entities lie in a given data structure."
    range_cm:
        Usable scroll range (near, far) in cm.  Defaults keep a safety
        margin inside the sensor's 4–30 cm branch so noise cannot push a
        reading over the fold-back peak or out of range.
    island_fill:
        Fraction of each entry's distance slice covered by its island;
        the remainder becomes the inter-island gap.  1.0 → no gaps.
    placement:
        Entry distribution strategy (see :class:`Placement`).

    Returns
    -------
    IslandMap
        The constructed mapping.

    Raises
    ------
    ValueError
        If the requested number of entries cannot be given at least
        one ADC code each within the range (the firmware must then chunk
        the menu — Section 7).
    """
    if n_entries < 1:
        raise ValueError(f"n_entries must be >= 1, got {n_entries}")
    if not 0.0 < island_fill <= 1.0:
        raise ValueError(f"island_fill must be in (0, 1], got {island_fill}")
    near, far = float(range_cm[0]), float(range_cm[1])
    if not near < far:
        raise ValueError(f"range must satisfy near < far, got {range_cm}")
    if near < sensor.params.peak_distance_cm:
        raise ValueError(
            f"near bound {near} cm lies in the fold-back region "
            f"(< {sensor.params.peak_distance_cm} cm)"
        )

    if placement is Placement.EQUAL_CODE:
        islands = _place_equal_code(sensor, adc, n_entries, near, far, island_fill)
    else:
        fill = 1.0 if placement is Placement.FULL_COVERAGE else island_fill
        islands = _place_equal_distance(sensor, adc, n_entries, near, far, fill)

    _validate_islands(islands, n_entries)
    return IslandMap(islands, placement)


def _code_for_distance(sensor: GP2D120, adc: ADC, distance_cm: float) -> int:
    """Expected ADC code at a distance, via the ideal sensor curve."""
    return adc.code_for_voltage(sensor.ideal_voltage(distance_cm))


def _codes_for_distances(
    sensor: GP2D120, adc: ADC, distances_cm: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`_code_for_distance`: one sensor + ADC pass."""
    return adc.codes_for_voltages(sensor.ideal_voltage_array(distances_cm))


def _place_equal_distance(
    sensor: GP2D120,
    adc: ADC,
    n_entries: int,
    near: float,
    far: float,
    fill: float,
) -> list[Island]:
    """The paper's construction: equal distance slices, islands inside.

    All edge/center codes come from one batched pass through the sensor
    transfer function and the ADC quantizer — bit-equal to the scalar
    per-slot computation, just one array op instead of ``3 * n_entries``
    scalar sweeps.
    """
    step = (far - near) / n_entries
    half_island = step * fill / 2.0
    centers = near + (np.arange(n_entries) + 0.5) * step
    # Voltage (and code) falls with distance: far edge → low code.
    edge_highs = _codes_for_distances(sensor, adc, centers - half_island)
    edge_lows = _codes_for_distances(sensor, adc, centers + half_island)
    center_codes = _codes_for_distances(sensor, adc, centers)
    code_lows = np.minimum(edge_lows, edge_highs)
    code_highs = np.maximum(edge_lows, edge_highs)
    islands = [
        Island(
            slot=slot,
            code_low=int(code_lows[slot]),
            code_high=int(code_highs[slot]),
            center_code=int(center_codes[slot]),
            center_distance_cm=float(centers[slot]),
        )
        for slot in range(n_entries)
    ]
    _shrink_overlaps(islands)
    return islands


def _place_equal_code(
    sensor: GP2D120,
    adc: ADC,
    n_entries: int,
    near: float,
    far: float,
    fill: float,
) -> list[Island]:
    """Ablation: equal slices of the raw code span (the naive mapping)."""
    code_near = _code_for_distance(sensor, adc, near)
    code_far = _code_for_distance(sensor, adc, far)
    code_lo_span, code_hi_span = min(code_far, code_near), max(code_far, code_near)
    span = code_hi_span - code_lo_span + 1
    step = span / n_entries
    islands = []
    for slot in range(n_entries):
        # Slot 0 is nearest → highest codes.
        slice_hi = code_hi_span - slot * step
        slice_lo = slice_hi - step
        center = (slice_lo + slice_hi) / 2.0
        half = step * fill / 2.0
        voltage = (center + 0.5) * adc.params.lsb_volts
        try:
            center_distance = sensor.distance_for_voltage(voltage)
        except ValueError:
            center_distance = far if voltage < 0.5 else near
        islands.append(
            Island(
                slot=slot,
                code_low=int(round(center - half)),
                code_high=int(round(center + half)),
                center_code=int(round(center)),
                center_distance_cm=float(center_distance),
            )
        )
    _shrink_overlaps(islands)
    return islands


def _shrink_overlaps(islands: list[Island]) -> None:
    """Resolve rounding-induced overlaps by splitting at the midpoint."""
    by_code = sorted(range(len(islands)), key=lambda i: islands[i].code_low)
    for a, b in zip(by_code, by_code[1:]):
        lower, upper = islands[a], islands[b]
        if lower.code_high >= upper.code_low:
            boundary = (lower.code_high + upper.code_low) // 2
            new_lower_high = min(boundary, lower.code_high)
            new_upper_low = max(boundary + 1, upper.code_low)
            if new_lower_high < lower.code_low or new_upper_low > upper.code_high:
                raise ValueError(
                    f"slots {lower.slot} and {upper.slot} collapse onto the "
                    "same ADC codes — too many entries for the range; chunk "
                    "the menu (Section 7) or widen the range"
                )
            islands[a] = Island(
                slot=lower.slot,
                code_low=lower.code_low,
                code_high=new_lower_high,
                center_code=lower.center_code,
                center_distance_cm=lower.center_distance_cm,
            )
            islands[b] = Island(
                slot=upper.slot,
                code_low=new_upper_low,
                code_high=upper.code_high,
                center_code=upper.center_code,
                center_distance_cm=upper.center_distance_cm,
            )


def _validate_islands(islands: list[Island], n_entries: int) -> None:
    for island in islands:
        if island.width_codes < 1:
            raise ValueError(
                f"{n_entries} entries leave island {island.slot} with no ADC "
                "codes — chunk the menu (Section 7) or widen the range"
            )
