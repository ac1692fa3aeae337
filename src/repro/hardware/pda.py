"""The PDA add-on variant of the DistScroll (§5.2 / §7).

"One also could think of a DistScroll add-on for mobile devices using
the power connector e.g. of mobile phones to augment the device with the
ability of using an alternative input technique" — and §7: "we also
intend to construct a minimized version of the DistScroll as add-on for
a PDA".

This module builds that planned hardware:

* :class:`DistScrollAddon` — the minimized sensor module: a GP2D120, a
  tiny MCU sampling it through a local ADC, and a UART streaming framed
  range codes to the host at a fixed report rate.  No displays, no
  buttons, no RF — everything else lives on the PDA.
* :class:`PDAListWidget` — the PDA's list view: a 160x160 screen shows
  11 text rows (vs. the prototype's 5), which is the main ergonomic
  difference the add-on study would measure.
* :class:`PDADriver` — host-side driver: parses the frame stream
  (checksummed, resynchronizing after corrupted bytes), applies the same
  island mapping as the firmware, and drives the widget plus the PDA's
  own select/back hardware buttons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.config import DeviceConfig
from repro.core.islands import IslandMap, build_island_map
from repro.core.menu import MenuCursor, MenuEntry
from repro.hardware.adc import ADC, ADCParams
from repro.hardware.pose import DrivenPose
from repro.hardware.serial import UART
from repro.sensors.gp2d120 import GP2D120
from repro.sim.kernel import PeriodicTask, Simulator
from repro.signal.filters import MedianFilter

__all__ = ["DistScrollAddon", "PDAListWidget", "PDADriver", "build_pda_device"]

#: Frame: sync byte, code high, code low, checksum (sum of payload & 0xFF).
_SYNC = 0xA5
_FRAME_LEN = 4


class DistScrollAddon(DrivenPose):
    """The minimized sensor module clipped onto the PDA connector.

    Parameters
    ----------
    sim:
        Shared simulator.
    uart:
        The wired link toward the PDA.
    report_hz:
        Frame rate (the GP2D120 refreshes at ~26 Hz; 50 Hz oversampling
        keeps host latency low, matching the handheld firmware).
    noisy:
        Noise-free sensor/ADC when ``False``.
    """

    def __init__(
        self,
        sim: Simulator,
        uart: UART,
        report_hz: float = 50.0,
        noisy: bool = True,
    ) -> None:
        self._sim = sim
        self._uart = uart
        rng = sim.spawn_rng() if noisy else None
        self.sensor = GP2D120.specimen(rng) if rng is not None else GP2D120(rng=None)
        self.adc = ADC(params=ADCParams(), rng=sim.spawn_rng() if noisy else None)
        self.distance_cm = 25.0
        # The sensor reads the pose only when it starts a new measurement
        # cycle (see GP2D120.output_voltage).
        distance_at = self.distance_at
        self.adc.attach(0, lambda t: self.sensor.output_voltage(t, distance_at))
        self.frames_sent = 0
        period = 1.0 / report_hz
        self._task = PeriodicTask(sim, period, self._report, phase=period)

    def set_distance(self, distance_cm: float) -> None:
        """The environment moves the PDA (with the add-on attached)."""
        self.distance_cm = float(distance_cm)

    def stop(self) -> None:
        """Power the add-on down."""
        self._task.stop()

    def _report(self) -> None:
        code = self.adc.sample(self._sim.now, 0)
        hi, lo = (code >> 8) & 0xFF, code & 0xFF
        checksum = (hi + lo) & 0xFF
        self._uart.write(bytes([_SYNC, hi, lo, checksum]))
        self.frames_sent += 1


class PDAListWidget:
    """The PDA's list view: 11 visible rows on a 160x160 screen."""

    VISIBLE_ROWS = 11

    def __init__(self) -> None:
        self.rows: list[str] = [""] * self.VISIBLE_ROWS
        self.title = ""
        self.redraws = 0

    def render(self, entries, highlight: int, title: str) -> None:
        """Show the window of entries around the highlight."""
        self.title = title
        first = max(
            0,
            min(highlight - self.VISIBLE_ROWS // 2, len(entries) - self.VISIBLE_ROWS),
        )
        self.rows = []
        for i in range(first, min(first + self.VISIBLE_ROWS, len(entries))):
            marker = ">" if i == highlight else " "
            self.rows.append(f"{marker}{entries[i].label}"[:26])
        while len(self.rows) < self.VISIBLE_ROWS:
            self.rows.append("")
        self.redraws += 1

    def visible_labels(self) -> list[str]:
        """Currently rendered rows."""
        return list(self.rows)


@dataclass
class PDADriver:
    """Host-side driver: frame parsing, island mapping, menu state.

    The driver mirrors the handheld firmware's selection semantics
    (islands, gaps, confirm debounce) so the add-on *feels* identical —
    only the display and buttons differ.
    """

    sim: Simulator
    uart: UART
    addon: DistScrollAddon
    menu: MenuEntry
    config: DeviceConfig = field(default_factory=DeviceConfig)
    on_activate: Optional[Callable[[MenuEntry], None]] = None

    def __post_init__(self) -> None:
        self.cursor = MenuCursor(root=self.menu, on_activate=self.on_activate)
        self.widget = PDAListWidget()
        self._filter = MedianFilter(self.config.smoothing_window)
        self._rx = bytearray()
        self.frames_ok = 0
        self.frames_bad = 0
        self._confirmed_slot: Optional[int] = None
        self._candidate_slot: Optional[int] = None
        self._candidate_since = 0.0
        self._island_map: Optional[IslandMap] = None
        self._rebuild_islands()
        self.uart.on_byte(self._on_byte)
        self._render()

    # ------------------------------------------------------------------
    # public state
    # ------------------------------------------------------------------
    @property
    def highlighted_index(self) -> int:
        """Highlighted entry index in the current level."""
        return self.cursor.highlight

    @property
    def island_map(self) -> IslandMap:
        """Mapping for the current level."""
        assert self._island_map is not None
        return self._island_map

    def aim_distance_for_index(self, index: int) -> float:
        """Hand distance whose island selects ``index`` (flat levels)."""
        n_slots = self.island_map.n_slots
        slot = n_slots - 1 - index  # towards-scrolls-down polarity
        return self.island_map.center_distance(slot)

    # ------------------------------------------------------------------
    # PDA hardware buttons
    # ------------------------------------------------------------------
    def press_select(self) -> None:
        """The PDA's action button."""
        activated = self.cursor.select()
        if activated is None:
            self._rebuild_islands()
        self._render()

    def press_back(self) -> None:
        """The PDA's back button."""
        if self.cursor.back():
            self._rebuild_islands()
        self._render()

    # ------------------------------------------------------------------
    # frame stream
    # ------------------------------------------------------------------
    def _on_byte(self, byte: int) -> None:
        self._rx.append(byte)
        while len(self._rx) >= _FRAME_LEN:
            if self._rx[0] != _SYNC:
                self._rx.pop(0)  # resynchronize
                continue
            frame = self._rx[:_FRAME_LEN]
            del self._rx[:_FRAME_LEN]
            hi, lo, checksum = frame[1], frame[2], frame[3]
            if (hi + lo) & 0xFF != checksum:
                self.frames_bad += 1
                continue
            self.frames_ok += 1
            self._handle_code((hi << 8) | lo)

    def _handle_code(self, raw_code: int) -> None:
        code = int(round(self._filter.update(raw_code)))
        slot = self.island_map.lookup(code)
        if slot is None:
            self._candidate_slot = None
            return
        now = self.sim.now
        if slot != self._confirmed_slot:
            cycle = self.addon.sensor.params.cycle_time_s
            needed = self.config.confirm_samples * cycle
            if slot != self._candidate_slot:
                self._candidate_slot = slot
                self._candidate_since = now
            if now - self._candidate_since < needed - 1e-9:
                return
            self._confirmed_slot = slot
            self._candidate_slot = None
        n_slots = self.island_map.n_slots
        index = n_slots - 1 - slot
        if self.cursor.set_highlight(index):
            self._render()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _rebuild_islands(self) -> None:
        self._confirmed_slot = None
        self._candidate_slot = None
        n_entries = max(len(self.cursor.entries), 1)
        # The PDA screen fits 11 rows; map at most that many per level
        # slice (levels beyond that would use the handheld's chunking —
        # the add-on study keeps levels <= 11).
        self._island_map = build_island_map(
            self.addon.sensor,
            self.addon.adc,
            n_entries,
            range_cm=self.config.range_cm,
            island_fill=self.config.island_fill,
        )
        self._filter.reset()

    def _render(self) -> None:
        title = ">".join(self.cursor.breadcrumb) or "(top)"
        self.widget.render(self.cursor.entries, self.cursor.highlight, title)


def build_pda_device(
    menu: MenuEntry,
    seed: int = 0,
    config: Optional[DeviceConfig] = None,
    noisy: bool = True,
) -> tuple[Simulator, DistScrollAddon, PDADriver]:
    """Assemble the PDA + add-on pair on a fresh simulator.

    Returns ``(sim, addon, driver)`` — move the device with
    ``addon.set_distance`` and read state from the driver/widget.
    """
    sim = Simulator(seed=seed)
    uart = UART(
        sim,
        framing_error_rate=0.001 if noisy else 0.0,
        rng=sim.spawn_rng() if noisy else None,
    )
    addon = DistScrollAddon(sim, uart, noisy=noisy)
    driver = PDADriver(
        sim=sim,
        uart=uart,
        addon=addon,
        menu=menu,
        config=config or DeviceConfig(),
    )
    return sim, addon, driver
