"""Batched multi-device engine: one SoA step advances N devices at once.

PR 4 vectorized the signal chain across *samples* of one device
(``ideal_voltage_array``/``codes_for_voltages``/``update_batch``).  This
module plays the same trick across *devices*: a :class:`DeviceBatch` holds
the firmware-visible state of N heterogeneous devices as structure-of-arrays
(held voltages, filter rings, fold-back latches, debounce candidates …)
and steps the whole fleet with a fixed set of numpy operations per tick —
sensing → ADC quantization → median filter → island lookup → cursor
update.  That is what turns "millions of simulated users" into a
single-machine workload: the per-device cost of a tick drops from one
Python event dispatch to a few array lanes.

Model scope
-----------
A batch device is the signal chain of :class:`repro.core.firmware.Firmware`
reduced to what a fleet study measures: single-level menus (``chunk_size``
semantics of 0), fast-scroll disabled, no buttons/display/RF/battery.
Everything the chain itself does — zero-order-hold sensing, surface
corruption, ADC INL + noise, fold-back latch with re-entry hysteresis,
plausibility gate, selection debounce in sensor-cycle time, reversed
scroll direction — is reproduced exactly.

Oracle discipline (PR 4's contract, across devices)
---------------------------------------------------
:class:`ScalarDeviceEngine` steps ONE device with plain scalar Python,
reusing the real scalar components wherever the stream layout allows:
``GP2D120.ideal_voltage`` (noise-free), the real :class:`ADC` instance
(``sample`` with its fault-hook plumbing), :class:`MedianFilter.update`,
and ``IslandMap.lookup``.  :class:`DeviceBatch` must be **bit-equal** to
stepping N independent ``ScalarDeviceEngine`` instances.  The property
suite in ``tests/test_batch_engine.py`` enforces this across mixed
personas/gloves/surfaces, active fault windows and observe=On.

Per-device RNG streams
----------------------
A single interleaved generator per device (what ``GP2D120`` uses) cannot
be batched across devices, because the *number* of draws one device makes
per tick is data-dependent (the corruption gate picks uniform vs normal).
Instead every device owns dedicated streams spawned from
``SeedSequence(seed, spawn_key=(BATCH_STREAM, index, purpose))`` — one
purpose per draw site (gate / noise / corruption / ADC / glitch).  Each
stream is then poolable: ``rng.normal(0, σ, size=K)`` is stream-identical
to K scalar draws (pinned by tests), so the batch engine pre-draws K
values per device and both engines consume the same numbers in the same
order.  Shard layout cannot matter: device ``i``'s streams depend only on
``(seed, i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.islands import IslandMap, Placement, build_island_map
from repro.faults import FaultKind, FaultWindow
from repro.hardware.adc import ADC, ADCParams
from repro.interaction.personas import (
    Persona,
    PersonaSpec,
    parse_spec,
    persona_for_user,
)
from repro.sensors.gp2d120 import GP2D120
from repro.sensors.surfaces import (
    AMBIENT_CONDITIONS,
    CLOTHING,
    REFERENCE_LIGHT,
    REFERENCE_SURFACE,
    AmbientLight,
    Surface,
)
from repro.signal.filters import MedianFilter
from repro.signal.scalar import clamp
from repro.sim.streams import BATCH_STREAM

__all__ = [
    "BatchDeviceSpec",
    "DeviceBatch",
    "ScalarDeviceEngine",
    "derive_device_spec",
    "device_stream",
    "SIGNAL_FAULT_KINDS",
]

# One sub-stream per independent draw site of the device model.
_SUB_SPEC = 0  # spec derivation (config, trajectory)
_SUB_SPECIMEN = 1  # GP2D120.specimen part-to-part variation
_SUB_GATE = 2  # corruption gate (uniform draws only)
_SUB_NOISE = 3  # measurement noise (normal draws only)
_SUB_CORRUPT = 4  # corrupted-reading value (uniform draws only)
_SUB_ADC = 5  # ADC input-referred noise (normal draws only)
_SUB_GLITCH_GATE = 6  # ADC_GLITCH rate gate
_SUB_GLITCH_VALUE = 7  # ADC_GLITCH corrupted code

#: Fault kinds the batch signal chain models (the firmware's other kinds
#: target peripherals a batch device does not carry).
SIGNAL_FAULT_KINDS = frozenset(
    {
        FaultKind.ADC_GLITCH,
        FaultKind.ADC_STUCK,
        FaultKind.SENSOR_OCCLUSION,
        FaultKind.SENSOR_DROPOUT,
    }
)

#: Pre-drawn pool depth per stream; refills are amortized scalar calls.
_POOL = 256

_SMOOTHING_CHOICES = (1, 3, 5)
#: Comparators of a 5-input sorting network (every input order sorts).
_SORT5 = ((0, 1), (3, 4), (2, 4), (2, 3), (1, 4), (0, 3), (0, 2), (1, 3), (1, 2))
#: Idle ring slots alternate +inf and -inf, so a 5-sort of any ring puts
#: its median at slot 2 (odd count) or halfway between slots 1 and 2
#: (even count), whatever the window and the count.
_RING_PAD = (np.inf, -np.inf, np.inf, -np.inf, np.inf)
_RANGE_CM = (5.0, 28.0)
_ISLAND_FILL = 0.62
_TICK_HZ = 50.0
_MAX_HAND_SPEED_CM_S = 150.0

#: Surfaces a fleet device may rest against, in stable draw order.  The
#: last two are the paper's "potentially problematic" corrupting cases.
_SURFACE_NAMES = tuple(CLOTHING)
_AMBIENT_NAMES = tuple(AMBIENT_CONDITIONS)


def device_stream(
    seed: int, index: int, purpose: int
) -> np.random.Generator:
    """Device ``index``'s dedicated generator for one draw site."""
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(BATCH_STREAM, index, purpose)
    )
    return np.random.Generator(np.random.PCG64(sequence))


@dataclass(frozen=True)
class BatchDeviceSpec:
    """Everything that makes device ``index`` the device it is.

    Derivation is O(1) per device (:func:`derive_device_spec`) so any
    shard can materialize any device — FLEET's ``userblocks`` sharding
    depends on this for ``--jobs`` invariance.
    """

    index: int
    persona_cell: str
    glove: str
    n_entries: int
    smoothing_window: int
    confirm_samples: int
    reversed_direction: bool
    surface_name: str
    ambient_name: str
    range_cm: tuple[float, float]
    island_fill: float
    #: Piecewise-linear hand trajectory: ((time_s, distance_cm), ...).
    waypoints: tuple[tuple[float, float], ...]
    fault_windows: tuple[FaultWindow, ...] = ()

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a trajectory needs at least two waypoints")
        for window in self.fault_windows:
            if window.kind not in SIGNAL_FAULT_KINDS:
                raise ValueError(
                    f"fault kind {window.kind.name} has no batch-device "
                    "model; supported: "
                    + ", ".join(sorted(k.name for k in SIGNAL_FAULT_KINDS))
                )

    @property
    def surface(self) -> Surface:
        return CLOTHING.get(self.surface_name, REFERENCE_SURFACE)

    @property
    def ambient(self) -> AmbientLight:
        return AMBIENT_CONDITIONS.get(self.ambient_name, REFERENCE_LIGHT)


def _draw_fault_windows(
    rng: np.random.Generator, duration_hint_s: float
) -> tuple[FaultWindow, ...]:
    """A deterministic small fault schedule drawn from the spec stream."""
    kinds = (
        FaultKind.SENSOR_OCCLUSION,
        FaultKind.SENSOR_DROPOUT,
        FaultKind.ADC_STUCK,
        FaultKind.ADC_GLITCH,
    )
    kind = kinds[int(rng.integers(0, len(kinds)))]
    start = float(rng.uniform(0.1, max(duration_hint_s * 0.6, 0.2)))
    duration = float(rng.uniform(0.1, max(duration_hint_s * 0.3, 0.15)))
    if kind is FaultKind.ADC_GLITCH:
        return (
            FaultWindow(kind, start, duration, rate=float(rng.uniform(0.2, 0.9))),
        )
    return (FaultWindow(kind, start, duration),)


def derive_device_spec(
    seed: int,
    index: int,
    personas: Optional[PersonaSpec] = None,
    fault_every: int = 0,
    duration_hint_s: float = 2.0,
) -> BatchDeviceSpec:
    """Derive device ``index`` of a fleet, O(1) and shard-independent.

    The persona engine supplies the human heterogeneity (glove worn,
    motor tremor); the device's own spec stream supplies the hardware
    and usage heterogeneity (menu size, filter window, surface, hand
    trajectory).  ``fault_every > 0`` gives every ``fault_every``-th
    device a deterministic fault schedule drawn from the same stream.
    """
    spec = personas if personas is not None else parse_spec("full")
    persona: Persona = persona_for_user(seed, index, spec)
    glove = persona.glove_model()
    rng = device_stream(seed, index, _SUB_SPEC)

    n_entries = int(rng.integers(6, 13))
    smoothing_window = _SMOOTHING_CHOICES[int(rng.integers(0, 3))]
    confirm_samples = int(rng.integers(1, 4))
    reversed_direction = bool(rng.random() < 0.5)
    surface_name = _SURFACE_NAMES[int(rng.integers(0, len(_SURFACE_NAMES)))]
    ambient_name = _AMBIENT_NAMES[int(rng.integers(0, len(_AMBIENT_NAMES)))]

    # Piecewise-linear trajectory over the usable range.  Tremor is folded
    # into the waypoints here, at derivation time, so the per-tick path is
    # pure interpolation arithmetic (IEEE-identical scalar vs batched).
    near, far = _RANGE_CM
    low, high = near + 0.5, far - 0.5
    tremor = 0.15 * glove.tremor_factor * persona.tremor_scale
    n_moves = int(rng.integers(4, 9))
    t = 0.0
    d = float(rng.uniform(low, high))
    waypoints = [(t, d)]
    for _ in range(n_moves):
        target = float(rng.uniform(low, high))
        target += float(rng.normal(0.0, tremor))
        target = float(np.clip(target, low, high))
        speed = float(rng.uniform(8.0, 30.0))
        t += abs(target - d) / speed
        waypoints.append((t, target))
        dwell = float(rng.uniform(0.2, 0.8))
        t += dwell
        waypoints.append((t, target))
        d = target

    fault_windows: tuple[FaultWindow, ...] = ()
    if fault_every > 0 and index % fault_every == 0:
        fault_windows = _draw_fault_windows(rng, duration_hint_s)

    return BatchDeviceSpec(
        index=index,
        persona_cell=persona.cell(),
        glove=persona.glove,
        n_entries=n_entries,
        smoothing_window=smoothing_window,
        confirm_samples=confirm_samples,
        reversed_direction=reversed_direction,
        surface_name=surface_name,
        ambient_name=ambient_name,
        range_cm=_RANGE_CM,
        island_fill=_ISLAND_FILL,
        waypoints=tuple(waypoints),
        fault_windows=fault_windows,
    )


class _DeviceBuild:
    """Shared construction: everything both engines derive identically.

    Only *construction* is shared between the oracle and the batch
    engine — the per-tick stepping code is written twice on purpose, so
    the bit-equality tests compare two independent implementations.
    """

    __slots__ = (
        "spec",
        "params",
        "mapping_sensor",
        "island_map",
        "cycle_time_s",
        "corruption_probability",
        "noise_sigma",
        "floor_voltage",
        "peak_voltage",
        "saturation",
        "gain",
        "curve_a",
        "curve_b",
        "curve_c",
        "peak_distance_cm",
        "max_range_cm",
        "fast_threshold_code",
        "reentry_code",
        "max_plausible_delta",
        "confirm_window_s",
    )

    def __init__(self, spec: BatchDeviceSpec, seed: int) -> None:
        self.spec = spec
        surface = spec.surface
        ambient = spec.ambient
        specimen_rng = device_stream(seed, spec.index, _SUB_SPECIMEN)
        specimen = GP2D120.specimen(specimen_rng, surface=surface, ambient=ambient)
        params = specimen.params
        self.params = params
        # Noise-free twin used for island placement, thresholds and the
        # ideal transfer function — same role as Firmware._mapping_sensor.
        self.mapping_sensor = GP2D120(
            params=params, rng=None, surface=surface, ambient=ambient
        )
        adc = ADC(params=ADCParams(), rng=None)
        self.island_map: IslandMap = build_island_map(
            self.mapping_sensor,
            adc,
            spec.n_entries,
            range_cm=spec.range_cm,
            island_fill=spec.island_fill,
            placement=Placement.EQUAL_DISTANCE,
        )
        self.cycle_time_s = params.cycle_time_s
        self.corruption_probability = surface.corruption_probability
        self.noise_sigma = params.noise_rms * ambient.noise_factor
        self.floor_voltage = params.floor_voltage
        self.peak_voltage = params.peak_voltage
        self.saturation = params.saturation_voltage
        self.gain = surface.gain_factor
        self.curve_a = params.curve_a
        self.curve_b = params.curve_b
        self.curve_c = params.curve_c
        self.peak_distance_cm = params.peak_distance_cm
        self.max_range_cm = min(30.0, surface.max_range_cm)
        # Thresholds exactly as Firmware._rebuild_islands derives them.
        near = spec.range_cm[0]
        self.fast_threshold_code = adc.code_for_voltage(
            self.mapping_sensor.ideal_voltage(near - 0.45)
        )
        self.reentry_code = adc.code_for_voltage(
            self.mapping_sensor.ideal_voltage(near + 1.5)
        )
        dt = 1.0 / _TICK_HZ
        travel = _MAX_HAND_SPEED_CM_S * dt
        code_here = adc.code_for_voltage(self.mapping_sensor.ideal_voltage(near))
        code_there = adc.code_for_voltage(
            self.mapping_sensor.ideal_voltage(near + travel)
        )
        self.max_plausible_delta = abs(code_here - code_there) + 24
        self.confirm_window_s = spec.confirm_samples * params.cycle_time_s

    def lut_row(self) -> np.ndarray:
        """Dense code→slot table (-1 = gap), exact by construction.

        Filled from each island's inclusive ``[code_low, code_high]``
        range — ``n_slots`` slice assignments, not 1024 ``lookup`` calls.
        """
        row = np.full(1024, -1, dtype=np.int16)  # a slot is below 1024
        for island in self.island_map.islands:
            row[island.code_low : island.code_high + 1] = island.slot
        return row

    def padded_waypoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Waypoints plus one ``(+inf, last)`` pad.

        The pad makes the last segment's interpolation collapse to
        ``d_last + 0.0 * 0.0`` exactly, so neither engine needs an
        end-of-trajectory branch.
        """
        times = [t for t, _d in self.spec.waypoints]
        dists = [d for _t, d in self.spec.waypoints]
        times.append(float("inf"))
        dists.append(dists[-1])
        return np.asarray(times, dtype=float), np.asarray(dists, dtype=float)


class _DeviceFaults:
    """Per-device fault runtime shared by both engines.

    Mirrors the :mod:`repro.faults` hook semantics for the signal-path
    kinds: ADC_STUCK latches the first code seen in a window and wins
    over ADC_GLITCH; SENSOR_OCCLUSION beats SENSOR_DROPOUT; windows are
    half-open ``[start, end)`` and expiry triggers the firmware's
    re-acquire reset.  Each engine owns its own instance — the glitch
    streams advance identically only if the engines feed identical code
    sequences through, which is part of what the equality tests check.
    """

    def __init__(
        self, build: _DeviceBuild, seed: int, index: int
    ) -> None:
        windows = sorted(
            build.spec.fault_windows, key=lambda w: (w.start_s, w.end_s)
        )
        self._windows = windows
        self._pending = sorted(windows, key=lambda w: w.end_s)
        self._min_start = min(w.start_s for w in windows)
        self._stuck: dict[int, int] = {}
        self._occlusion_volts = {
            id(w): build.mapping_sensor.ideal_voltage(float(w.magnitude))
            for w in windows
            if w.kind is FaultKind.SENSOR_OCCLUSION
        }
        self._floor = build.floor_voltage
        self._has_adc_kinds = any(
            w.kind in (FaultKind.ADC_STUCK, FaultKind.ADC_GLITCH)
            for w in windows
        )
        has_glitch = any(w.kind is FaultKind.ADC_GLITCH for w in windows)
        self._glitch_gate = (
            device_stream(seed, index, _SUB_GLITCH_GATE) if has_glitch else None
        )
        self._glitch_value = (
            device_stream(seed, index, _SUB_GLITCH_VALUE) if has_glitch else None
        )

    @property
    def finished(self) -> bool:
        """All windows expired and their recovery reset delivered."""
        return not self._pending

    def service(self, now: float) -> bool:
        """Pop expired windows; True if the signal chain must re-acquire."""
        reset = False
        while self._pending and self._pending[0].end_s <= now:
            self._pending.pop(0)
            reset = True
        return reset

    def poll(self, now: float) -> tuple[bool, Optional[float], bool]:
        """One combined per-tick query: ``(reset, override, adc_live)``.

        Semantically ``service`` + ``sensor_override`` + "any ADC-kind
        window active", with a fast path for ticks outside every window
        — the batch engine's per-faulted-device cost between windows is
        this one call.
        """
        if not self._pending or now < self._min_start:
            return (False, None, False)
        reset = self.service(now)
        override = self.sensor_override(now)
        adc_live = self._has_adc_kinds and any(
            window.kind in (FaultKind.ADC_STUCK, FaultKind.ADC_GLITCH)
            and window.active(now)
            for window in self._windows
        )
        return (reset, override, adc_live)

    def _first_active(self, kind: FaultKind, now: float) -> Optional[FaultWindow]:
        for window in self._windows:
            if window.kind is kind and window.active(now):
                return window
        return None

    def sensor_override(self, now: float) -> Optional[float]:
        window = self._first_active(FaultKind.SENSOR_OCCLUSION, now)
        if window is not None:
            return self._occlusion_volts[id(window)]
        window = self._first_active(FaultKind.SENSOR_DROPOUT, now)
        if window is not None:
            return self._floor
        return None

    def adc_hook(self, now: float, code: int) -> int:
        window = self._first_active(FaultKind.ADC_STUCK, now)
        if window is not None:
            return self._stuck.setdefault(id(window), code)
        window = self._first_active(FaultKind.ADC_GLITCH, now)
        if window is not None:
            assert self._glitch_gate is not None
            assert self._glitch_value is not None
            if self._glitch_gate.random() < window.rate:
                return int(self._glitch_value.integers(0, 1024))
        return code


class ScalarDeviceEngine:
    """One device, stepped with plain scalar Python: the oracle.

    Reuses the real scalar components wherever the dedicated-stream
    layout allows (``ideal_voltage``, a real :class:`ADC` with its
    fault-hook plumbing, :class:`MedianFilter`, ``IslandMap.lookup``).
    ``None``-style firmware state is encoded with ``-1`` sentinels so a
    state snapshot compares directly against the batch arrays.
    """

    def __init__(self, spec: BatchDeviceSpec, seed: int) -> None:
        build = _DeviceBuild(spec, seed)
        self.build = build
        self.spec = spec
        self._gate = device_stream(seed, spec.index, _SUB_GATE)
        self._noise = device_stream(seed, spec.index, _SUB_NOISE)
        self._corrupt = device_stream(seed, spec.index, _SUB_CORRUPT)
        self._faults = (
            _DeviceFaults(build, seed, spec.index) if spec.fault_windows else None
        )
        self._adc = ADC(
            params=ADCParams(), rng=device_stream(seed, spec.index, _SUB_ADC)
        )
        self._volts = 0.0
        self._adc.attach(0, lambda _t: self._volts)
        if self._faults is not None:
            faults = self._faults
            self._adc.fault_hook = (
                lambda t, _channel, code: faults.adc_hook(t, code)
            )
        self._filter = MedianFilter(spec.smoothing_window)
        self._wp_t, self._wp_d = build.padded_waypoints()
        self._segment = 0
        self._held: Optional[float] = None
        self._last_cycle = -1
        # firmware state (sentinel -1 == the firmware's None)
        self.last_valid = -1
        self.streak = 0
        self.latched = False
        self.confirmed = -1
        self.candidate = -1
        self.candidate_since = 0.0
        self.current_slot = -2  # never looked up yet
        self.raw_code = 0
        self.filtered_code = 0
        self.highlight = 0
        # counters (match DeviceBatch's per-device counters)
        self.fresh = 0
        self.corrupted = 0
        self.latches = 0
        self.rejections = 0
        self.confirmations = 0
        self.moves = 0

    # -- one firmware tick ------------------------------------------------
    def step(self, now: float) -> None:
        build = self.build
        if self._faults is not None and self._faults.service(now):
            self._filter.reset()
            self.last_valid = -1
            self.latched = False
            self.streak = 0
        # trajectory
        while now >= self._wp_t[self._segment + 1]:
            self._segment += 1
        t0 = self._wp_t[self._segment]
        t1 = self._wp_t[self._segment + 1]
        d0 = self._wp_d[self._segment]
        d1 = self._wp_d[self._segment + 1]
        distance = d0 + (d1 - d0) * ((now - t0) / (t1 - t0))
        # zero-order-hold sensing (GP2D120.output_voltage semantics with
        # the dedicated gate/noise/corruption streams)
        cycle = int(now / build.cycle_time_s)
        if cycle != self._last_cycle or self._held is None:
            self._last_cycle = cycle
            self.fresh += 1
            ideal = build.mapping_sensor.ideal_voltage(float(distance))
            if self._gate.random() < build.corruption_probability:
                self.corrupted += 1
                self._held = float(
                    self._corrupt.uniform(build.floor_voltage, build.peak_voltage)
                )
            else:
                noisy = ideal + (
                    0.0 + build.noise_sigma * self._noise.standard_normal()
                )
                self._held = clamp(noisy, 0.0, build.saturation)
        volts = self._held
        if self._faults is not None:
            override = self._faults.sensor_override(now)
            if override is not None:
                volts = clamp(override, 0.0, build.saturation)
        # ADC conversion through the real component (hook + clip included)
        self._volts = volts
        self.raw_code = self._adc.sample(now, 0)
        self.filtered_code = int(round(self._filter.update(self.raw_code)))
        self._process_code(self.filtered_code, now)

    def _process_code(self, code: int, now: float) -> None:
        build = self.build
        if code > build.fast_threshold_code:
            if not self.latched:
                self.latches += 1
            self.latched = True
            return
        if self.latched:
            if code > build.reentry_code:
                return
            self.latched = False
            self.last_valid = -1
        if (
            self.last_valid != -1
            and abs(code - self.last_valid) > build.max_plausible_delta
        ):
            self.streak += 1
            self.rejections += 1
            if self.streak < 3:
                return
        self.streak = 0
        self.last_valid = code
        slot = build.island_map.lookup(code)
        self.current_slot = -1 if slot is None else slot
        if slot is None:
            self.candidate = -1
            return
        if slot != self.confirmed:
            needed = self.spec.confirm_samples * build.cycle_time_s
            if slot != self.candidate:
                self.candidate = slot
                self.candidate_since = now
            if now - self.candidate_since < needed - 1e-9:
                return
            self.confirmed = slot
            self.candidate = -1
            self.confirmations += 1
        n_slots = build.island_map.n_slots
        local = n_slots - 1 - slot if self.spec.reversed_direction else slot
        index = min(local, self.spec.n_entries - 1)
        if index != self.highlight:
            self.highlight = index
            self.moves += 1

    def state(self) -> tuple:
        """Comparable firmware-state snapshot (same encoding as the batch)."""
        held = self._held if self._held is not None else 0.0
        return (
            held,
            self.raw_code,
            self.filtered_code,
            self.last_valid,
            self.streak,
            self.latched,
            self.confirmed,
            self.candidate,
            self.candidate_since,
            self.current_slot,
            self.highlight,
        )

    def counters(self) -> tuple:
        return (
            self.fresh,
            self.corrupted,
            self.latches,
            self.rejections,
            self.confirmations,
            self.moves,
        )


class _DrawPool:
    """One draw site's pre-drawn values: a row per device, one stream each.

    A device's stream is built on its first draw unless
    :meth:`build_streams` built them all up front.  It depends only on
    ``(seed, index, purpose)``, so when it is built cannot change a
    value, and on a lazy site a device that never draws never pays for
    its stream.  A refill draws ``_POOL`` values in one call, which
    numpy makes stream-identical to ``_POOL`` scalar draws.
    """

    def __init__(
        self,
        seed: int,
        indices: Sequence[int],
        purpose: int,
        draw: Callable[[np.random.Generator, int], np.ndarray],
    ) -> None:
        n = len(indices)
        self._seed = seed
        self._indices = indices
        self._purpose = purpose
        self._draw = draw
        self._streams: list[Optional[np.random.Generator]] = [None] * n
        self.values = np.empty((n, _POOL))
        self._flat = self.values.reshape(-1)
        self._cursor = np.full(n, _POOL, dtype=np.int64)

    def build_streams(self) -> None:
        """Build every device's stream now rather than on its first draw."""
        for row, index in enumerate(self._indices):
            self._streams[row] = device_stream(self._seed, index, self._purpose)

    def refill(self, rows: Sequence[int]) -> None:
        """Draw a fresh pool of values for each of ``rows``."""
        streams = self._streams
        for row in rows:
            rng = streams[row]
            if rng is None:
                rng = device_stream(self._seed, self._indices[row], self._purpose)
                streams[row] = rng
            self.values[row] = self._draw(rng, row)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next pooled value of each of ``rows`` (distinct rows)."""
        position = self._cursor[rows]
        exhausted = position >= _POOL
        if exhausted.any():
            self.refill(rows[exhausted].tolist())
            position[exhausted] = 0
        self._cursor[rows] = position + 1
        return self._flat[rows * _POOL + position]


class DeviceBatch:
    """N devices stepped together, structure-of-arrays.

    ``step(now)`` advances every device by one firmware tick and returns
    the number of device-ticks performed.  Observability is pre-
    aggregated: one counter ``inc(n)`` per metric per batch tick plus a
    sampled ``batch.tick`` span, instead of per-device instruments — the
    whole point being that observe=On stays production-cheap at fleet
    scale.  Obs never touches the RNG streams or device state, so
    bit-equality holds with a recorder active.
    """

    def __init__(
        self,
        specs: Sequence[BatchDeviceSpec],
        seed: int,
        span_sample_every: int = 64,
    ) -> None:
        if not specs:
            raise ValueError("DeviceBatch needs at least one device spec")
        self.specs = list(specs)
        self.seed = seed
        n = len(self.specs)
        self.n_devices = n
        builds = [_DeviceBuild(spec, seed) for spec in self.specs]
        self._builds = builds

        def as_f(pick: Callable[[_DeviceBuild], float]) -> np.ndarray:
            return np.array([pick(b) for b in builds], dtype=float)

        def as_i(pick: Callable[[_DeviceBuild], int]) -> np.ndarray:
            return np.array([pick(b) for b in builds], dtype=np.int64)

        # static per-device parameters
        self._cycle_time = as_f(lambda b: b.cycle_time_s)
        self._corruption_p = as_f(lambda b: b.corruption_probability)
        self._noise_sigma = as_f(lambda b: b.noise_sigma)
        self._floor_v = as_f(lambda b: b.floor_voltage)
        self._peak_v = as_f(lambda b: b.peak_voltage)
        self._saturation = as_f(lambda b: b.saturation)
        self._gain = as_f(lambda b: b.gain)
        self._curve_a = as_f(lambda b: b.curve_a)
        self._curve_b = as_f(lambda b: b.curve_b)
        self._curve_c = as_f(lambda b: b.curve_c)
        self._peak_d = as_f(lambda b: b.peak_distance_cm)
        self._max_range = as_f(lambda b: b.max_range_cm)
        self._fast_threshold = as_i(lambda b: b.fast_threshold_code)
        self._reentry = as_i(lambda b: b.reentry_code)
        self._max_delta = as_i(lambda b: b.max_plausible_delta)
        self._confirm_needed = as_f(lambda b: b.confirm_window_s)
        self._n_slots = as_i(lambda b: b.island_map.n_slots)
        self._n_entries = as_i(lambda b: b.spec.n_entries)
        self._window = as_i(lambda b: b.spec.smoothing_window)
        self._reversed = np.array(
            [b.spec.reversed_direction for b in builds], dtype=bool
        )
        self._lut = np.stack([b.lut_row() for b in builds])
        # Row-major flat views: ``flat[row * width + col]`` is one 1-D
        # gather, cheaper than ``array[rows, cols]`` fancy indexing.
        self._lut_flat = self._lut.reshape(-1)
        self._lut_base = np.arange(n) * self._lut.shape[1]
        # Loop-invariant operands of the per-tick comparisons.
        self._confirm_cutoff = self._confirm_needed - 1e-9
        self._last_slot = self._n_slots - 1
        self._last_entry = self._n_entries - 1

        # trajectories, padded to a common width
        width = max(len(b.spec.waypoints) for b in builds) + 1
        self._wp_t = np.full((n, width), np.inf)
        self._wp_d = np.empty((n, width))
        for row, build in enumerate(builds):
            times, dists = build.padded_waypoints()
            self._wp_t[row, : times.size] = times
            self._wp_d[row, : dists.size] = dists
            self._wp_d[row, dists.size :] = dists[-1]
        self._wp_t_flat = self._wp_t.reshape(-1)
        self._wp_d_flat = self._wp_d.reshape(-1)
        adc_params = ADCParams()
        self._v_ref = adc_params.v_ref
        self._code_span = float(adc_params.max_code + 1)
        self._max_code = adc_params.max_code
        self._inl_lsb = adc_params.inl_lsb
        self._adc_noise_rms = adc_params.noise_lsb_rms
        self._lanes = np.arange(n)
        self._span_sample_every = max(int(span_sample_every), 0)
        self.reset()

    def reset(self) -> None:
        """Restore pristine post-construction state (streams included).

        A reset batch replays the exact same run: the RNG streams, pools
        and fault runtimes start over from the seed.  Benchmarks use
        this to time steady-state stepping without rebuilding the fleet.
        """
        n = self.n_devices
        seed = self.seed
        builds = self._builds
        indices = [spec.index for spec in self.specs]

        # trajectory: each device's current segment, as its endpoint
        # waypoints and the flat index of its end waypoint
        self._seg_end = np.arange(n) * self._wp_t.shape[1] + 1
        self._seg_t0 = self._wp_t[:, 0].copy()
        self._seg_t1 = self._wp_t[:, 1].copy()
        self._seg_d0 = self._wp_d[:, 0].copy()
        self._seg_d1 = self._wp_d[:, 1].copy()

        # dedicated per-device streams + pre-drawn pools
        floor_v, peak_v = self._floor_v.tolist(), self._peak_v.tolist()
        noise_sigma = self._noise_sigma.tolist()
        self._gate_pool = _DrawPool(
            seed, indices, _SUB_GATE, lambda rng, _row: rng.random(_POOL)
        )
        self._noise_pool = _DrawPool(
            seed, indices, _SUB_NOISE,
            lambda rng, row: rng.normal(0.0, noise_sigma[row], _POOL),
        )
        self._corrupt_pool = _DrawPool(
            seed, indices, _SUB_CORRUPT,
            lambda rng, row: rng.uniform(floor_v[row], peak_v[row], _POOL),
        )
        adc_rms = self._adc_noise_rms
        self._adc_pool = _DrawPool(
            seed, indices, _SUB_ADC,
            lambda rng, _row: rng.normal(0.0, adc_rms, _POOL),
        )
        self._adc_cursor = _POOL  # lockstep: one draw per device per tick
        # Every device draws gate, noise and ADC values from its first
        # tick, so those streams are built here, before stepping: built
        # inside step they fragment the heap (~2 MiB more peak RSS over
        # a 512-device FLEET run).  Most devices never draw a corrupted
        # value, so that site keeps building its streams on first draw.
        for pool in (self._gate_pool, self._noise_pool, self._adc_pool):
            pool.build_streams()

        # fault runtimes (scalar path; most fleets have few faulted devices)
        self._faults: list[Optional[_DeviceFaults]] = [
            _DeviceFaults(b, seed, b.spec.index) if b.spec.fault_windows else None
            for b in builds
        ]
        self._fault_rows = [
            row for row, f in enumerate(self._faults) if f is not None
        ]

        # sensing state
        self._held = np.zeros(n)
        self._has_held = np.zeros(n, dtype=bool)
        self._all_held = False
        self._last_cycle = np.full(n, -1, dtype=np.int64)

        # median-filter rings, one row per slot and one lane per device;
        # slots not written since the last (re)start hold _RING_PAD
        self._ring = np.empty((len(_RING_PAD), n))
        self._ring[:] = np.array(_RING_PAD)[:, None]
        self._ring_flat = self._ring.reshape(-1)
        self._ring_pos = np.zeros(n, dtype=np.int64)
        self._ring_count = np.zeros(n, dtype=np.int64)
        self._ring_full = False  # every ring holds a full window

        # firmware state, -1 sentinels matching the oracle
        self.raw_code = np.zeros(n, dtype=np.int64)
        self.filtered_code = np.zeros(n, dtype=np.int64)
        self.last_valid = np.full(n, -1, dtype=np.int64)
        self.streak = np.zeros(n, dtype=np.int64)
        self.latched = np.zeros(n, dtype=bool)
        self.confirmed = np.full(n, -1, dtype=np.int64)
        self.candidate = np.full(n, -1, dtype=np.int64)
        self.candidate_since = np.zeros(n)
        self.current_slot = np.full(n, -2, dtype=np.int64)
        self.highlight = np.zeros(n, dtype=np.int64)

        # per-device counters
        self.fresh = np.zeros(n, dtype=np.int64)
        self.corrupted = np.zeros(n, dtype=np.int64)
        self.latches = np.zeros(n, dtype=np.int64)
        self.rejections = np.zeros(n, dtype=np.int64)
        self.confirmations = np.zeros(n, dtype=np.int64)
        self.moves = np.zeros(n, dtype=np.int64)

        self.ticks = 0
        self._obs_plan: Optional[tuple] = None

    # -- one batched firmware tick ---------------------------------------
    def step(self, now: float) -> int:
        """Advance every device by one tick; returns device-ticks done."""
        n = self.n_devices

        # fault poll (scalar, faulted devices only; finished rows pruned)
        overrides: list[tuple[int, float]] = []
        adc_fault_rows: list[int] = []
        if self._fault_rows:
            keep = []
            for row in self._fault_rows:
                faults = self._faults[row]
                assert faults is not None
                reset, override, adc_live = faults.poll(now)
                if reset:
                    self._ring_count[row] = 0
                    self._ring_pos[row] = 0
                    self._ring[:, row] = _RING_PAD
                    self._ring_full = False
                    self.last_valid[row] = -1
                    self.latched[row] = False
                    self.streak[row] = 0
                if override is not None:
                    overrides.append((row, override))
                if adc_live:
                    adc_fault_rows.append(row)
                if not faults.finished:
                    keep.append(row)
            self._fault_rows = keep

        # trajectory: step every device past the waypoints it has reached
        # (the same segment the oracle's per-tick catch-up loop lands on)
        advance = now >= self._seg_t1
        while advance.any():
            passed = np.flatnonzero(advance)
            end = self._seg_end[passed] + 1
            self._seg_end[passed] = end
            self._seg_t0[passed] = self._seg_t1[passed]
            self._seg_d0[passed] = self._seg_d1[passed]
            self._seg_t1[passed] = self._wp_t_flat[end]
            self._seg_d1[passed] = self._wp_d_flat[end]
            advance = now >= self._seg_t1

        # zero-order-hold: refresh only devices entering a new sensor cycle
        cycle = (now / self._cycle_time).astype(np.int64)
        fresh = cycle != self._last_cycle
        if not self._all_held:
            fresh |= ~self._has_held
        self._last_cycle = cycle
        fresh_rows = np.flatnonzero(fresh)
        n_corrupt = 0
        if fresh_rows.size:
            if not self._all_held:
                self._has_held[fresh_rows] = True
                self._all_held = bool(self._has_held.all())
            self.fresh += fresh
            t0 = self._seg_t0[fresh_rows]
            t1 = self._seg_t1[fresh_rows]
            d0 = self._seg_d0[fresh_rows]
            d1 = self._seg_d1[fresh_rows]
            distance = d0 + (d1 - d0) * ((now - t0) / (t1 - t0))
            ideal = self._ideal_voltage(fresh_rows, distance)
            gate = self._gate_pool.take(fresh_rows)
            corrupt = gate < self._corruption_p[fresh_rows]
            if corrupt.any():
                clean = ~corrupt
                corrupt_rows = fresh_rows[corrupt]
                clean_rows = fresh_rows[clean]
                ideal = ideal[clean]
                n_corrupt = int(corrupt_rows.size)
                self.corrupted[corrupt_rows] += 1
                self._held[corrupt_rows] = self._corrupt_pool.take(
                    corrupt_rows
                )
            else:
                clean_rows = fresh_rows
            if clean_rows.size:
                noisy = ideal + self._noise_pool.take(clean_rows)
                np.maximum(noisy, 0.0, out=noisy)
                np.minimum(noisy, self._saturation[clean_rows], out=noisy)
                self._held[clean_rows] = noisy

        volts = self._held
        if overrides:
            volts = self._held.copy()
            for row, override in overrides:
                saturation = float(self._saturation[row])
                volts[row] = min(max(override, 0.0), saturation)

        # ADC quantization (vectorized _quantize, lockstep noise draws)
        if self._adc_cursor >= _POOL:
            self._adc_pool.refill(range(n))
            self._adc_cursor = 0
        adc_noise = self._adc_pool.values[:, self._adc_cursor]
        self._adc_cursor += 1
        fraction = volts / self._v_ref
        # min/max stand in for np.clip (same codes: they can differ only
        # in the sign of a zero, which the integer code drops)
        bow = np.maximum(fraction, 0.0)
        np.minimum(bow, 1.0, out=bow)
        bow *= np.pi
        np.sin(bow, out=bow)
        bow *= self._inl_lsb
        code = fraction * self._code_span
        code += bow
        code += adc_noise
        np.rint(code, out=code)  # np.round's own loop at 0 decimals
        np.maximum(code, 0.0, out=code)
        np.minimum(code, self._max_code, out=code)
        codes = code.astype(np.int64)
        for row in adc_fault_rows:
            faults = self._faults[row]
            assert faults is not None
            hooked = faults.adc_hook(now, int(codes[row]))
            codes[row] = min(max(hooked, 0), self._max_code)
        self.raw_code = codes

        # median filter (count-aware ring, matches MedianFilter.update):
        # a sorting network over the five slot rows, lane by lane
        self._ring_flat[self._ring_pos * n + self._lanes] = codes
        self._ring_pos += 1
        self._ring_pos %= self._window
        if not self._ring_full:
            np.minimum(self._ring_count + 1, self._window,
                       out=self._ring_count)
            self._ring_full = bool((self._ring_count == self._window).all())
        slots = list(self._ring.copy())
        spare = np.empty(n)
        for low, high in _SORT5:
            np.minimum(slots[low], slots[high], out=spare)
            np.maximum(slots[low], slots[high], out=slots[high])
            slots[low], spare = spare, slots[low]
        median = slots[2]
        if not self._ring_full:
            even = (self._ring_count & 1) == 0
            median[even] = 0.5 * (slots[1][even] + median[even])
        filtered = np.round(median).astype(np.int64)
        self.filtered_code = filtered

        # fold-back latch + re-entry hysteresis (Firmware._process_code);
        # ``a ^ b`` below is ``a & ~b`` where ``b`` is a subset of ``a``
        above = filtered > self._fast_threshold
        new_latches = above & ~self.latched
        self.latches += new_latches
        self.latched |= above
        below = self.latched ^ above
        held_latched = below & (filtered > self._reentry)
        unlatch = below ^ held_latched
        np.putmask(self.latched, unlatch, False)
        np.putmask(self.last_valid, unlatch, -1)
        active = ~(above | held_latched)

        # plausibility gate
        suspicious = (
            active
            & (self.last_valid != -1)
            & (np.abs(filtered - self.last_valid) > self._max_delta)
        )
        self.streak += suspicious
        self.rejections += suspicious
        rejected = suspicious & (self.streak < 3)
        accepted = active ^ rejected
        np.putmask(self.streak, accepted, 0)
        np.copyto(self.last_valid, filtered, where=accepted)

        # island lookup + selection debounce (Firmware._apply_slot_lookup)
        slot = self._lut_flat[self._lut_base + filtered]
        np.copyto(self.current_slot, slot, where=accepted)
        acting = accepted & (slot >= 0)
        np.putmask(self.candidate, accepted ^ acting, -1)  # in a gap
        same_as_confirmed = acting & (slot == self.confirmed)
        changed = acting ^ same_as_confirmed
        fresh_candidate = changed & (slot != self.candidate)
        np.copyto(self.candidate, slot, where=fresh_candidate)
        np.putmask(self.candidate_since, fresh_candidate, now)
        confirm = changed & (
            (now - self.candidate_since) >= self._confirm_cutoff
        )
        np.copyto(self.confirmed, slot, where=confirm)
        np.putmask(self.candidate, confirm, -1)
        self.confirmations += confirm

        moving = same_as_confirmed | confirm
        local = np.where(self._reversed, self._last_slot - slot, slot)
        index = np.minimum(local, self._last_entry)
        moved = moving & (index != self.highlight)
        np.copyto(self.highlight, index, where=moved)
        self.moves += moved

        self.ticks += 1
        self._record_obs(now, fresh_rows.size, n_corrupt, new_latches,
                         suspicious, confirm, moved)
        return n

    def _ideal_voltage(
        self, device_rows: np.ndarray, distance: np.ndarray
    ) -> np.ndarray:
        """Vectorized per-device GP2D120.ideal_voltage for a row subset.

        The fold-back branch stays per-element through the real scalar
        method: numpy's SIMD ``**`` differs from libm by 1 ulp (PR 4).
        """
        peak_d = self._peak_d[device_rows]
        max_range = self._max_range[device_rows]
        positive = distance > 0.0
        ranged = positive & (distance >= peak_d) & (distance <= max_range)
        if not ranged.all():
            fold = positive & (distance < peak_d)
            out = self._floor_v[device_rows]
            ranged_rows = device_rows[ranged]
            d = distance[ranged]
            out[ranged] = (
                self._curve_a[ranged_rows] / (d + self._curve_b[ranged_rows])
                + self._curve_c[ranged_rows]
            )
            out *= self._gain[device_rows]
            out = np.clip(out, 0.0, self._saturation[device_rows])
            for position in np.flatnonzero(fold):
                row = device_rows[position]
                out[position] = self._builds[row].mapping_sensor.ideal_voltage(
                    float(distance[position])
                )
            return out
        # common case: every reading on the usable branch
        out = (
            self._curve_a[device_rows] / (distance + self._curve_b[device_rows])
            + self._curve_c[device_rows]
        )
        out *= self._gain[device_rows]
        return np.clip(out, 0.0, self._saturation[device_rows])

    # -- observability ----------------------------------------------------
    def _record_obs(
        self,
        now: float,
        n_fresh: int,
        n_corrupt: int,
        new_latches: np.ndarray,
        suspicious: np.ndarray,
        confirm: np.ndarray,
        moved: np.ndarray,
    ) -> None:
        plan = self._obs_plan
        if plan is None:
            from repro.obs.recorder import active_recorder

            recorder = active_recorder()
            if not recorder.enabled or recorder.metrics is None:
                self._obs_plan = (None,)
                return
            metrics = recorder.metrics
            plan = (
                recorder,
                metrics.counter("batch.ticks"),
                metrics.counter("batch.device_ticks"),
                metrics.counter("batch.measurements.fresh"),
                metrics.counter("batch.measurements.corrupted"),
                metrics.counter("batch.foldback.latches"),
                metrics.counter("batch.plausibility.rejections"),
                metrics.counter("batch.debounce.confirmations"),
                metrics.counter("batch.highlight.moves"),
            )
            self._obs_plan = plan
        if plan[0] is None:
            return
        (recorder, ticks, device_ticks, fresh, corrupted, latches,
         rejections, confirmations, moves) = plan
        ticks.inc()
        device_ticks.inc(self.n_devices)
        if n_fresh:
            fresh.inc(n_fresh)
        if n_corrupt:
            corrupted.inc(n_corrupt)
        count = int(new_latches.sum())
        if count:
            latches.inc(count)
        count = int(suspicious.sum())
        if count:
            rejections.inc(count)
        count = int(confirm.sum())
        if count:
            confirmations.inc(count)
        count = int(moved.sum())
        if count:
            moves.inc(count)
        every = self._span_sample_every
        if every and (self.ticks - 1) % every == 0:
            recorder.emit_span(
                "batch.tick", now, now,
                {"devices": self.n_devices, "tick": self.ticks},
            )

    # -- results ----------------------------------------------------------
    def state(self, row: int) -> tuple:
        """Device ``row``'s snapshot, same encoding as the oracle's."""
        return (
            float(self._held[row]),
            int(self.raw_code[row]),
            int(self.filtered_code[row]),
            int(self.last_valid[row]),
            int(self.streak[row]),
            bool(self.latched[row]),
            int(self.confirmed[row]),
            int(self.candidate[row]),
            float(self.candidate_since[row]),
            int(self.current_slot[row]),
            int(self.highlight[row]),
        )

    def counters(self, row: int) -> tuple:
        return (
            int(self.fresh[row]),
            int(self.corrupted[row]),
            int(self.latches[row]),
            int(self.rejections[row]),
            int(self.confirmations[row]),
            int(self.moves[row]),
        )

    def result_rows(self) -> list[tuple]:
        """One plain-scalar row per device (fleet experiment payload)."""
        rows = []
        for position, spec in enumerate(self.specs):
            rows.append(
                (
                    spec.index,
                    spec.persona_cell,
                    spec.glove,
                    spec.surface_name,
                    spec.ambient_name,
                    spec.n_entries,
                    spec.smoothing_window,
                    spec.confirm_samples,
                    "reversed" if spec.reversed_direction else "natural",
                    len(spec.fault_windows),
                    int(self.fresh[position]),
                    int(self.corrupted[position]),
                    int(self.latches[position]),
                    int(self.rejections[position]),
                    int(self.confirmations[position]),
                    int(self.moves[position]),
                    int(self.filtered_code[position]),
                    int(self.highlight[position]),
                )
            )
        return rows
