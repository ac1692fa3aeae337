"""The DistScroll firmware, re-implemented from the paper's description.

"The code for the microcontroller in the DistScroll device is programmed
in C" (Section 4).  This module is that firmware's logic on the simulated
Smart-Its board: a fixed-rate main loop that

1. polls and debounces the three buttons,
2. starts an ADC conversion on the distance channel and median-filters
   the raw code,
3. maps the filtered code through the island table — keeping the previous
   selection while the reading sits in an inter-island gap,
4. drives the menu state machine (highlight / select / back / chunk
   paging for long levels),
5. renders the top display (menu window) and bottom display (state and
   debug information, as used in the initial study) over I2C,
6. streams interaction events over the RF link to the host PC.

Firmware-level mitigations from Section 4.2 are implemented faithfully:
the fold-back region below ~4 cm is unusable for absolute positioning, so
a *plausibility gate* rejects physically impossible code jumps, and —
optionally — the steep region is exploited as a **fast-scroll** gesture
"for faster scrolling or browsing" by advanced users.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.core.config import DeviceConfig, ScrollDirection
from repro.core.events import (
    ButtonEvent,
    ChunkChanged,
    EntryActivated,
    FastScroll,
    HighlightChanged,
    InteractionEvent,
    SubmenuEntered,
    SubmenuLeft,
)
from repro.core.islands import IslandMap, build_island_map
from repro.core.menu import MenuCursor, MenuEntry
from repro.faults import FaultKind
from repro.hardware.i2c import I2CError
from repro.hardware.board import (
    ADC_CHANNEL_DISTANCE,
    ADC_CHANNEL_DISTANCE_SPARE,
    DistScrollBoard,
)
from repro.obs.recorder import Recorder, active_recorder
from repro.sensors.fusion import DualRangeFinder
from repro.hardware.display import BT96040, TEXT_LINES
from repro.signal.filters import MedianFilter
from repro.sim.kernel import PeriodicTask

__all__ = ["Firmware"]

#: Rough instruction costs of the C routines, for cycle-budget accounting.
_COST_ADC_SAMPLE = 120
_COST_FILTER_PER_SAMPLE = 40
_COST_ISLAND_LOOKUP = 90
_COST_BUTTON_POLL = 25
_COST_DISPLAY_LINE = 450
_COST_RF_PACKET = 800
_COST_FUSION = 160

#: Display supply current (both panels), mA.
_DISPLAY_CURRENT_MA = 6.0
#: RF transmit pulse: charge per packet expressed as mA for 5 ms.
_RF_PULSE_MA = 18.0
_RF_PULSE_S = 0.005

#: One precomputed tick-obs stage span: (span name, duration, attrs),
#: as :meth:`Recorder.emit_span_sequence` takes it.
_TickObsStage = tuple[str, float, dict[str, int]]
#: (stage spans, tick attrs, (histogram, cycles) observations, battery
#: gauge).
_TickObsPlan = tuple[
    tuple[_TickObsStage, ...],
    dict[str, int],
    tuple[tuple[Any, float], ...],
    Any,
]


class Firmware:
    """The device firmware bound to a board, a config and a menu.

    Parameters
    ----------
    board:
        Assembled hardware (see :func:`repro.hardware.board.build_distscroll_board`).
    menu:
        The menu tree to navigate.
    config:
        Device configuration.
    on_event:
        Optional application callback receiving every
        :class:`~repro.core.events.InteractionEvent`.

    Notes
    -----
    Construction allocates the firmware's flash/RAM footprint on the MCU
    and starts the main-loop :class:`~repro.sim.PeriodicTask`; the firmware
    is live as soon as the simulator runs.
    """

    def __init__(
        self,
        board: DistScrollBoard,
        menu: MenuEntry,
        config: Optional[DeviceConfig] = None,
        on_event: Optional[Callable[[InteractionEvent], None]] = None,
    ) -> None:
        self.board = board
        self.config = config or DeviceConfig()
        self.cursor = MenuCursor(root=menu)
        self._listeners: list[Callable[[InteractionEvent], None]] = []
        if on_event is not None:
            self._listeners.append(on_event)

        self._sim = board.sim
        self._filter = MedianFilter(self.config.smoothing_window)
        self._island_map: Optional[IslandMap] = None
        self._island_maps: dict[int, IslandMap] = {}
        # Fixed for the firmware's life, like the island maps built from
        # it: the mapping curve, the fold-back thresholds and the
        # plausibility bound.
        self._map_sensor = self._mapping_sensor()
        near = self.config.range_cm[0]
        self._fast_threshold_code = board.adc.code_for_voltage(
            self._map_sensor.ideal_voltage(near - 0.45)
        )
        # Unlatch the fold-back hold only once the reading is clearly on
        # the usable branch again (shallow aliases stay above this code).
        self._reentry_code = board.adc.code_for_voltage(
            self._map_sensor.ideal_voltage(near + 1.5)
        )
        # A hand cannot move faster than ~150 cm/s; over one tick that
        # bounds how far the code can plausibly travel.
        self._max_plausible_delta = self._plausible_code_delta()
        # How long a new island must persist before the highlight moves
        # (see _apply_slot_lookup).
        self._confirm_window_s = (
            self.config.confirm_samples
            * board.distance_sensor.params.cycle_time_s
        )
        self._chunk = 0
        self._last_valid_code: Optional[int] = None
        self._suspicious_streak = 0
        self._fast_accumulator = 0.0
        self._fast_active = False
        self._foldback_latch = False
        self._display_dirty = True
        self._last_render_time = -math.inf
        self._halted = False

        # Graceful-degradation state (see repro.faults): render retry with
        # exponential backoff after I2C failures, a display watchdog that
        # re-renders after controller resets, and a brown-out hold that
        # rides out transient battery sag instead of halting.
        self._render_backoff_s = 0.0
        self._render_retry_at = -math.inf
        self._seen_display_resets = 0
        self._brownout_holding = False
        self.i2c_render_failures = 0
        self.i2c_render_recoveries = 0
        self.display_watchdog_rerenders = 0
        self.brownout_holds = 0

        self.raw_code: int = 0
        self.filtered_code: int = 0
        self.current_slot: Optional[int] = None

        # Static firmware footprint: mirrors a realistic C build for the
        # 18F452 (main loop, menu engine, display driver, RF stack).
        board.mcu.allocate("firmware-code", flash_bytes=14_500, ram_bytes=420)

        #: Text pushed by the host PC over RF (shown on the bottom panel
        #: in place of the debug/state view until cleared).
        self._host_message: Optional[list[str]] = None
        board.rf_device.on_receive(self._on_rf_packet)

        self._fusion: Optional[DualRangeFinder] = None
        if self.config.dual_sensor:
            if board.spare_distance_sensor is None:
                raise ValueError(
                    "dual_sensor mode requires the spare sensor slot to be "
                    "fitted (fit_spare_sensor=True at board assembly)"
                )
            self._fusion = DualRangeFinder(
                board.distance_sensor,
                board.spare_distance_sensor,
                baseline_cm=board.spare_offset_cm,
            )
            # The fusion routine and second ADC channel cost extra code.
            board.mcu.allocate("fusion-code", flash_bytes=1_800, ram_bytes=24)

        self._buttons = tuple(board.buttons.values())
        # The main loop's fixed work, charged to the cycle budget once
        # per tick.
        self._tick_cycles = 0
        for _stage, cycles in self._tick_stages():
            self._tick_cycles += cycles
        self._period = self.config.firmware_period_s

        # Observability binds once at construction (see repro.obs): the
        # per-tick fast path stays a single None check when disabled.
        self._obs: Optional[Recorder] = active_recorder()
        # Precomputed tick-obs stage table, built lazily on the first
        # observed tick (stage costs and the MCU rate are fixed after
        # construction, so names/durations/instruments never change).
        self._tick_obs_plan: Optional[_TickObsPlan] = None

        self._wire_buttons()
        self._rebuild_islands()

        period = self._period
        self._main_task = PeriodicTask(self._sim, period, self._tick, phase=period)
        self._render_task = PeriodicTask(
            self._sim,
            1.0 / self.config.display_refresh_hz,
            self._render_if_dirty,
            phase=1.5 / self.config.display_refresh_hz,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def add_listener(self, callback: Callable[[InteractionEvent], None]) -> None:
        """Subscribe to interaction events."""
        self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[InteractionEvent], None]) -> None:
        """Unsubscribe (no-op when absent)."""
        try:
            self._listeners.remove(callback)
        except ValueError:
            pass

    @property
    def island_map(self) -> IslandMap:
        """The active sensor-code→slot mapping for the current level."""
        assert self._island_map is not None
        return self._island_map

    @property
    def chunk(self) -> int:
        """Current page of a chunked long level (0 when unchunked)."""
        return self._chunk

    @property
    def n_chunks(self) -> int:
        """Number of pages the current level is split into."""
        n_entries = len(self.cursor.entries)
        size = self._effective_chunk_size()
        return max(1, math.ceil(n_entries / size))

    @property
    def halted(self) -> bool:
        """Whether the firmware stopped (battery brown-out or :meth:`halt`)."""
        return self._halted

    def halt(self) -> None:
        """Stop the firmware loops (power-off)."""
        self._halted = True
        self._main_task.stop()
        self._render_task.stop()

    def aim_distance_for_index(self, index: int) -> float:
        """Hand distance (cm) whose island selects entry ``index``.

        This is the *ground truth* aim point simulated users move to; it is
        also what a real user learns as the spatial position of an entry.
        Accounts for the current chunk — the caller must page to the right
        chunk first (see :meth:`chunk_of_index`).
        """
        size = self._effective_chunk_size()
        local = index - self._chunk * size
        slots = self.island_map.n_slots
        if not 0 <= local < slots:
            raise ValueError(
                f"entry {index} is not on chunk {self._chunk} "
                f"(local {local} outside 0..{slots - 1})"
            )
        slot = self._slot_for_local_index(local, slots)
        return self.island_map.center_distance(slot)

    def chunk_of_index(self, index: int) -> int:
        """Which chunk/page contains a global entry index."""
        return index // self._effective_chunk_size()

    def distance_tolerance_cm(self, index: int) -> float:
        """Half-width of the entry's island in distance terms (cm).

        The effective Fitts target width for this entry.
        """
        size = self._effective_chunk_size()
        local = index - self._chunk * size
        slot = self._slot_for_local_index(local, self.island_map.n_slots)
        return self.island_map.distance_tolerance(slot, self.board.distance_sensor)

    # ------------------------------------------------------------------
    # buttons
    # ------------------------------------------------------------------
    def _wire_buttons(self) -> None:
        buttons = self.board.buttons
        if "select" in buttons:
            buttons["select"].on_press = self._on_select
        if "back" in buttons:
            buttons["back"].on_press = self._on_back
        if "aux" in buttons:
            buttons["aux"].on_press = self._on_aux

    def _on_select(self) -> None:
        self._emit(ButtonEvent(time=self._sim.now, name="select", pressed=True))
        depth_before = self.cursor.depth
        activated = self.cursor.select()
        if activated is not None:
            path = self.cursor.breadcrumb + (activated.label,)
            self._emit(
                EntryActivated(
                    time=self._sim.now,
                    label=activated.label,
                    action=activated.action,
                    path=path,
                )
            )
        elif self.cursor.depth > depth_before:
            self._emit(
                SubmenuEntered(
                    time=self._sim.now,
                    label=self.cursor.current_level.label,
                    depth=self.cursor.depth,
                )
            )
            self._enter_level()
        self._display_dirty = True

    def _on_back(self) -> None:
        self._emit(ButtonEvent(time=self._sim.now, name="back", pressed=True))
        if self.cursor.back():
            self._emit(SubmenuLeft(time=self._sim.now, depth=self.cursor.depth))
            self._enter_level(keep_highlight=True)
        self._display_dirty = True

    def _on_aux(self) -> None:
        self._emit(ButtonEvent(time=self._sim.now, name="aux", pressed=True))
        self._advance_chunk(+1)

    # ------------------------------------------------------------------
    # level / chunk management
    # ------------------------------------------------------------------
    def _effective_chunk_size(self) -> int:
        n_entries = len(self.cursor.entries)
        if self.config.chunk_size == 0:
            return max(n_entries, 1)
        return min(self.config.chunk_size, max(n_entries, 1))

    def _enter_level(self, keep_highlight: bool = False) -> None:
        if keep_highlight:
            self._chunk = self.chunk_of_index(self.cursor.highlight)
        else:
            self._chunk = 0
        self._rebuild_islands()
        self._last_valid_code = None
        self._filter.reset()

    def _advance_chunk(self, step: int) -> None:
        chunks = self.n_chunks
        if chunks <= 1:
            return
        self._chunk = (self._chunk + step) % chunks
        size = self._effective_chunk_size()
        first = self._chunk * size
        self.cursor.set_highlight(first)
        self._rebuild_islands()
        self._emit(
            ChunkChanged(time=self._sim.now, chunk=self._chunk, n_chunks=chunks)
        )
        self._display_dirty = True

    def _mapping_sensor(self):
        """The curve the island table is computed from.

        Factory-calibrated devices use their own specimen's curve; an
        uncalibrated build must fall back to the generic datasheet part
        (ABL-CAL measures the difference).
        """
        if self.config.factory_calibrated:
            return self.board.distance_sensor
        from repro.sensors.gp2d120 import GP2D120

        return GP2D120(rng=None)

    def _rebuild_islands(self) -> None:
        self._confirmed_slot = None
        self._candidate_slot = None
        self._candidate_since = 0.0
        n_entries = len(self.cursor.entries)
        size = self._effective_chunk_size()
        first = self._chunk * size
        entries_on_chunk = min(size, n_entries - first)
        entries_on_chunk = max(entries_on_chunk, 1)
        self._island_map = self._island_map_for(entries_on_chunk)
        # The entry each slot highlights on this page, fixed until the
        # next rebuild.
        n_slots = self._island_map.n_slots
        self._slot_entries = tuple(
            min(first + self._local_index_for_slot(slot, n_slots),
                n_entries - 1)
            for slot in range(n_slots)
        )
        # The island table lives in the PIC's RAM: 6 bytes per island.
        self.board.mcu.free("island-table")
        self.board.mcu.allocate(
            "island-table", ram_bytes=6 * self._island_map.n_slots
        )

    def _island_map_for(self, n_slots: int) -> IslandMap:
        """The island map for ``n_slots`` entries, built once per firmware.

        Its inputs (the mapping sensor's noise-free curve, the ADC, and
        the configured range, fill and placement) never change after
        construction, so every chunk page or zoom level with the same
        slot count reuses one map.  An :class:`IslandMap` is read-only.
        """
        island_map = self._island_maps.get(n_slots)
        if island_map is None:
            island_map = build_island_map(
                self._map_sensor,
                self.board.adc,
                n_slots,
                range_cm=self.config.range_cm,
                island_fill=self.config.island_fill,
                placement=self.config.placement,
            )
            self._island_maps[n_slots] = island_map
        return island_map

    def _plausible_code_delta(self) -> int:
        sensor = self.board.distance_sensor
        adc = self.board.adc
        near = self.config.range_cm[0]
        dt = self.config.firmware_period_s
        max_hand_speed_cm_s = 150.0
        travel = max_hand_speed_cm_s * dt
        code_here = adc.code_for_voltage(sensor.ideal_voltage(near))
        code_there = adc.code_for_voltage(sensor.ideal_voltage(near + travel))
        # Steepest part of the curve is at the near end; add noise headroom.
        return abs(code_here - code_there) + 24

    def _slot_for_local_index(self, local_index: int, n_slots: int) -> int:
        if self.config.direction is ScrollDirection.TOWARDS_SCROLLS_DOWN:
            return n_slots - 1 - local_index
        return local_index

    def _local_index_for_slot(self, slot: int, n_slots: int) -> int:
        if self.config.direction is ScrollDirection.TOWARDS_SCROLLS_DOWN:
            return n_slots - 1 - slot
        return slot

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._halted:
            return
        board = self.board
        now = self._sim.now
        if board.fault_plan is not None:
            self._service_faults(now)
        if board.battery.browned_out:
            plan = board.fault_plan
            if plan is not None and (
                plan.active_window(FaultKind.BATTERY_SAG, now) is not None
            ):
                # Fault-induced sag: the regulator dropped out but the cell
                # is fine.  Hold (skip the tick) and resume when it clears
                # rather than latching a permanent halt.
                if not self._brownout_holding:
                    self._brownout_holding = True
                    self.brownout_holds += 1
                    if self._obs is not None:
                        self._obs.counter("firmware.brownout.holds")
                return
            self.halt()
            return
        if self._brownout_holding:
            self._brownout_holding = False
            # Power came back: the signal chain must re-acquire and the
            # panels need a refresh.
            self._filter.reset()
            self._last_valid_code = None
            self._display_dirty = True
        mcu = board.mcu
        mcu.begin_tick(self._tick_cycles)

        for button in self._buttons:
            # poll() changes nothing while the contact, the debounce
            # candidate and the debounced state agree: every tick between
            # presses.
            if (
                button.button._closed != button._candidate
                or button._candidate != button._stable_state
            ):
                button.poll(now)

        self.raw_code = board.adc.sample(now, ADC_CHANNEL_DISTANCE)
        self.filtered_code = int(round(self._filter.update(self.raw_code)))

        if self._fusion is not None:
            spare_code = board.adc.sample(now, ADC_CHANNEL_DISTANCE_SPARE)
            self._process_code_fused(self.filtered_code, spare_code, now)
        else:
            self._process_code(self.filtered_code, now)

        period = self._period
        mcu.consume_power(period)
        board.battery.draw(_DISPLAY_CURRENT_MA, period)
        if self._obs is not None:
            self._record_tick_obs(now)

    def _tick_stages(self) -> tuple[tuple[str, int], ...]:
        """Each main-loop stage's instruction cost in one tick."""
        fused = self._fusion is not None
        return (
            ("buttons", _COST_BUTTON_POLL * len(self._buttons)),
            ("adc", _COST_ADC_SAMPLE * (2 if fused else 1)),
            ("filter", _COST_FILTER_PER_SAMPLE * self.config.smoothing_window),
            ("fusion", _COST_FUSION if fused else 0),
            ("island-lookup", _COST_ISLAND_LOOKUP),
        )

    def _record_tick_obs(self, now: float) -> None:
        """Emit the per-stage spans and histograms for one main-loop tick.

        Sim time does not advance *inside* a tick — all the stage work is
        charged to the MCU cycle budget — so span durations here are the
        modeled stage costs converted through the MCU's instruction rate.
        Stages are laid out back to back from the tick's start time,
        which is exactly the budget accounting the C firmware would show
        on a logic analyzer.
        """
        obs = self._obs
        assert obs is not None
        plan = self._tick_obs_plan
        if plan is None:
            plan = self._tick_obs_plan = self._build_tick_obs_plan(obs)
        stages, tick_attrs, observations, battery_gauge = plan
        obs.emit_span_sequence("firmware.tick", now, tick_attrs, stages)
        for hist, cycles in observations:
            hist.observe(cycles)
        battery_gauge.set(self.board.battery.terminal_voltage(), now)

    def _build_tick_obs_plan(self, obs: Recorder) -> "_TickObsPlan":
        """Precompute the per-stage span names, durations and instruments.

        The stage cycle costs depend only on the board layout and firmware
        config, both fixed after construction, so the f-string name
        formatting, attr dicts and registry lookups need to happen once —
        not on every tick.  Durations are accumulated back into ``now``
        per tick with the same ``cursor + duration`` op sequence as the
        unrolled loop, keeping exported trace bytes identical.
        """
        mips = self.board.mcu.params.mips
        metrics = obs.metrics
        spans: list[_TickObsStage] = []
        observations: list[tuple[Any, float]] = []
        for stage, cycles in self._tick_stages():
            if cycles == 0:
                continue
            spans.append(
                (f"firmware.tick.{stage}", cycles / mips, {"cycles": cycles})
            )
            observations.append(
                (
                    metrics.histogram(
                        f"firmware.stage.{stage}.cycles", low=1.0, high=1e6
                    ),
                    float(cycles),
                )
            )
        observations.append(
            (
                metrics.histogram("firmware.tick.cycles", low=1.0, high=1e6),
                float(self._tick_cycles),
            )
        )
        return (
            tuple(spans),
            {"cycles": self._tick_cycles},
            tuple(observations),
            metrics.gauge("firmware.battery.volts"),
        )

    def _process_code(self, code: int, now: float) -> None:
        # Fold-back / fast-scroll region: codes steeper than anything the
        # usable range produces.
        if code > self._fast_threshold_code:
            if not self._foldback_latch and self._obs is not None:
                self._obs.counter("firmware.foldback.latches")
            self._foldback_latch = True
            self._fast_scroll_tick(now)
            return
        if self._foldback_latch:
            # The device crossed the voltage peak: readings below the
            # threshold may be fold-back aliases (< 4 cm looks like a far
            # distance).  Hold the selection until the reading is clearly
            # back on the usable branch (§4.2: the ambiguity "can be
            # tolerated" because the firmware simply freezes through it).
            if code > self._reentry_code:
                return
            self._foldback_latch = False
            self._last_valid_code = None  # re-acquire cleanly
        if self._fast_active:
            self._fast_active = False
            self._fast_accumulator = 0.0
            self._last_valid_code = None  # re-acquire after the gesture

        # Plausibility gate against fold-back aliases: a reading that
        # teleports further than a hand can move is held until confirmed.
        if (
            self._last_valid_code is not None
            and abs(code - self._last_valid_code) > self._max_plausible_delta
        ):
            self._suspicious_streak += 1
            if self._obs is not None:
                self._obs.counter("firmware.plausibility.rejections")
            if self._suspicious_streak < 3:
                return
        self._suspicious_streak = 0
        self._last_valid_code = code
        self._apply_slot_lookup(code, now)

    def _apply_slot_lookup(self, code: int, now: float) -> None:
        """Map a trusted code through the islands to the highlight."""
        slot = self._island_map.lookup(code)
        self.current_slot = slot
        if slot is None:
            self._candidate_slot = None
            return  # in a gap: selection unchanged, by design
        # Selection debounce: a *different* island must persist across
        # ``confirm_samples`` independent sensor measurement cycles before
        # the highlight moves.  (The GP2D120 holds its output for ~38 ms,
        # so counting firmware ticks would double-count one measurement —
        # the confirmation window is expressed in sensor-cycle time.)
        if slot != self._confirmed_slot:
            if slot != self._candidate_slot:
                self._candidate_slot = slot
                self._candidate_since = now
            if now - self._candidate_since < self._confirm_window_s - 1e-9:
                return
            self._confirmed_slot = slot
            self._candidate_slot = None
            if self._obs is not None:
                self._obs.counter("firmware.debounce.confirmations")
        index = self._slot_entries[slot]
        previous = self.cursor.highlight
        if index != previous and self.cursor.set_highlight(index):
            self._display_dirty = True
            self._emit(
                HighlightChanged(
                    time=now,
                    index=self.cursor.highlight,
                    label=self.cursor.highlighted_entry.label,
                    previous_index=previous,
                )
            )

    def _process_code_fused(self, code: int, spare_code: int, now: float) -> None:
        """Dual-sensor decision path: fusion replaces the fold-back latch.

        The recessed sensor vouches for (or vetoes) the primary reading:
        a confirmed fold-back freezes the selection (or drives the
        fast-scroll gesture); a consistent pair goes straight to the
        island lookup with no latch heuristics.
        """
        assert self._fusion is not None
        lsb = self.board.adc.params.lsb_volts
        fused = self._fusion.fuse_voltages(code * lsb, spare_code * lsb)
        if not fused.valid:
            return  # nothing in front of either sensor: hold selection
        if fused.in_foldback:
            self._fast_scroll_tick(now)
            return
        if self._fast_active:
            self._fast_active = False
            self._fast_accumulator = 0.0
        # Near-peak codes above the mapped span also drive fast-scroll,
        # mirroring the single-sensor gesture region.
        if code > self._fast_threshold_code:
            self._fast_scroll_tick(now)
            return
        self._apply_slot_lookup(code, now)

    def _fast_scroll_tick(self, now: float) -> None:
        """Advance the fast-scroll gesture by one tick (if enabled)."""
        if not self.config.fast_scroll_enabled:
            return
        self._fast_active = True
        self._fast_accumulator += self._period
        step_period = 1.0 / self.config.fast_scroll_rate_hz
        while self._fast_accumulator >= step_period:
            self._fast_accumulator -= step_period
            self._fast_step(now)

    def _fast_step(self, now: float) -> None:
        """One fast-scroll increment toward the near-end of the list."""
        direction = (
            +1
            if self.config.direction is ScrollDirection.TOWARDS_SCROLLS_DOWN
            else -1
        )
        previous = self.cursor.highlight
        target = previous + direction
        n_entries = len(self.cursor.entries)
        if 0 <= target < n_entries:
            if self.chunk_of_index(target) != self._chunk:
                self._advance_chunk(direction)
                self.cursor.set_highlight(target)
            else:
                self.cursor.set_highlight(target)
            self._display_dirty = True
            if self._obs is not None:
                self._obs.counter("firmware.fastscroll.steps")
            self._emit(
                FastScroll(time=now, index=self.cursor.highlight, step=direction)
            )

    # ------------------------------------------------------------------
    # display rendering
    # ------------------------------------------------------------------
    def _on_rf_packet(self, packet) -> None:
        """Handle a downlink command from the host PC.

        Protocol (mirrors the trivial line protocol of the original
        Smart-Its host tools): ``SHOW:<text>`` displays an instruction on
        the bottom panel; ``CLEAR`` restores the debug/state view.
        """
        payload = packet.payload
        if payload.startswith(b"SHOW:"):
            text = payload[5:].decode("latin-1", errors="replace")
            self._host_message = _wrap_lines(text)
            self._display_dirty = True
        elif payload == b"CLEAR":
            self._host_message = None
            self._display_dirty = True

    def _render_if_dirty(self) -> None:
        if self._halted or self._brownout_holding:
            return
        now = self._sim.now
        # Display watchdog: a controller reset blanks the panel without the
        # firmware issuing anything — detect it and schedule a re-render.
        board = self.board
        resets = board.display_top.resets + board.display_bottom.resets
        if resets != self._seen_display_resets:
            self._seen_display_resets = resets
            self._display_dirty = True
            self.display_watchdog_rerenders += 1
            plan = board.fault_plan
            if plan is not None:
                self._record_recovery_for_kind(
                    FaultKind.DISPLAY_RESET, now, "watchdog-rerender"
                )
        if not self._display_dirty or now < self._render_retry_at:
            return
        self._display_dirty = False
        try:
            self._render_menu()
            if self._host_message is not None:
                self._write_bottom(self._host_message)
            elif self.config.debug_display:
                self._render_debug()
            else:
                self._render_state()
        except I2CError:
            # Bus trouble survived the bus-level retries: keep the frame
            # dirty and come back with exponential backoff, as the C
            # firmware's display task does.
            self.i2c_render_failures += 1
            if self._obs is not None:
                self._obs.counter("firmware.render.failures")
            self._display_dirty = True
            self._render_backoff_s = min(
                max(2.0 * self._render_backoff_s,
                    2.0 / self.config.display_refresh_hz),
                0.8,
            )
            self._render_retry_at = now + self._render_backoff_s
            return
        if self._render_backoff_s > 0.0:
            # A full frame landed after one or more failed attempts.
            self.i2c_render_recoveries += 1
            if self._obs is not None:
                self._obs.counter("firmware.render.recoveries")
            self._record_recovery_for_kind(
                FaultKind.I2C_ERROR, now, "render-retry-backoff"
            )
            self._render_backoff_s = 0.0
            self._render_retry_at = -math.inf

    def _record_recovery_for_kind(
        self, kind: FaultKind, now: float, action: str
    ) -> None:
        """Publish a firmware recovery against the active window, if any."""
        plan = self.board.fault_plan
        if plan is None:
            return
        hit = plan.active_window(kind, now)
        if hit is not None:
            plan.record_recovery(hit[0], now, action)

    def _service_faults(self, now: float) -> None:
        """Close out expired fault windows with their recovery actions.

        Every :class:`~repro.faults.FaultWindow` is paired with a recovery
        here: signal-path faults re-acquire the filter and plausibility
        state, and every recovery forces a display refresh so the user
        never looks at stale state.
        """
        plan = self.board.fault_plan
        if plan is None:
            return
        for window_id, window in plan.expired_windows(now):
            if window.kind in (
                FaultKind.ADC_GLITCH,
                FaultKind.ADC_STUCK,
                FaultKind.SENSOR_OCCLUSION,
                FaultKind.SENSOR_DROPOUT,
            ):
                self._filter.reset()
                self._last_valid_code = None
                self._foldback_latch = False
                self._suspicious_streak = 0
            self._display_dirty = True
            plan.record_recovery(window_id, now, "window-cleared")

    def _menu_window(self) -> tuple[int, list[tuple[bool, str]]]:
        """The TEXT_LINES-entry window around the highlight."""
        entries = self.cursor.entries
        highlight = self.cursor.highlight
        first = max(0, min(highlight - TEXT_LINES // 2, len(entries) - TEXT_LINES))
        rows = []
        for i in range(first, min(first + TEXT_LINES, len(entries))):
            rows.append((i == highlight, entries[i].label))
        return first, rows

    def _render_menu(self) -> None:
        from repro.hardware.board import I2C_ADDR_DISPLAY_TOP

        _, rows = self._menu_window()
        mcu = self.board.mcu
        for line in range(TEXT_LINES):
            if line < len(rows):
                marker = ">" if rows[line][0] else " "
                text = f"{marker}{rows[line][1]}"
            else:
                text = ""
            self.board.i2c.write(
                I2C_ADDR_DISPLAY_TOP, BT96040.encode_line(line, text)
            )
            mcu.execute(_COST_DISPLAY_LINE)

    def _render_debug(self) -> None:
        from repro.hardware.board import I2C_ADDR_DISPLAY_BOTTOM

        slot = self.current_slot if self.current_slot is not None else "-"
        lines = [
            f"raw {self.raw_code:4d}",
            f"flt {self.filtered_code:4d}",
            f"slot {slot}",
            f"chk {self._chunk + 1}/{self.n_chunks}",
            f"dep {self.cursor.depth}",
        ]
        self._write_bottom(lines)

    def _render_state(self) -> None:
        from repro.hardware.board import I2C_ADDR_DISPLAY_BOTTOM  # noqa: F401

        crumb = ">".join(self.cursor.breadcrumb[-2:]) or "(top)"
        lines = [
            crumb,
            f"{self.cursor.highlight + 1}/{len(self.cursor.entries)}",
            f"page {self._chunk + 1}/{self.n_chunks}",
            "",
            "",
        ]
        self._write_bottom(lines)

    def _write_bottom(self, lines: list[str]) -> None:
        from repro.hardware.board import I2C_ADDR_DISPLAY_BOTTOM

        mcu = self.board.mcu
        for line in range(TEXT_LINES):
            text = lines[line] if line < len(lines) else ""
            self.board.i2c.write(
                I2C_ADDR_DISPLAY_BOTTOM, BT96040.encode_line(line, text)
            )
            mcu.execute(_COST_DISPLAY_LINE)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def _emit(self, event: InteractionEvent) -> None:
        for listener in list(self._listeners):
            listener(event)
        if self.board.rf_device.send(event.to_bytes()):
            self.board.mcu.execute(_COST_RF_PACKET)
            self.board.battery.draw(_RF_PULSE_MA, _RF_PULSE_S)


def _wrap_lines(text: str, width: int = 16, max_lines: int = TEXT_LINES) -> list[str]:
    """Word-wrap host text into display lines."""
    words = text.split()
    lines: list[str] = []
    current = ""
    for word in words:
        candidate = f"{current} {word}".strip()
        if len(candidate) <= width:
            current = candidate
        else:
            lines.append(current)
            current = word
        if len(lines) == max_lines:
            return lines
    if current:
        lines.append(current)
    return lines
