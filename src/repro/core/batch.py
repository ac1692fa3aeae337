"""FLEET's device model: many heterogeneous devices, one scalar engine each.

A fleet device is the signal chain of :class:`repro.core.firmware.Firmware`
reduced to what a fleet study measures: single-level menus (``chunk_size``
semantics of 0), fast-scroll disabled, no buttons/display/RF/battery.
Everything the chain itself does — zero-order-hold sensing, surface
corruption, ADC INL + noise, fold-back latch with re-entry hysteresis,
plausibility gate, selection debounce in sensor-cycle time, reversed
scroll direction — is reproduced exactly.

:class:`ScalarDeviceEngine` steps ONE device with plain scalar Python,
reusing the real scalar components wherever the stream layout allows:
``GP2D120.ideal_voltage`` (noise-free), the real :class:`ADC` instance
(``sample`` with its fault-hook plumbing), :class:`MedianFilter.update`,
and ``IslandMap.lookup``.  :class:`DeviceBatch` is a block of those
engines, stepped together by one kernel task.

Per-device RNG streams
----------------------
Every device owns dedicated streams spawned from
``SeedSequence(seed, spawn_key=(BATCH_STREAM, index, purpose))``, built
by :func:`repro.sim.streams.stream_rng` — one purpose per draw site
(gate / noise / corruption / ADC / glitch) — so a device's draws depend
only on ``(seed, index)``.  Shard layout cannot
matter: any block partition of a fleet yields the same per-device rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
from repro.sim.streams import BATCH_STREAM, stream_rng

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

#: Fault kinds the fleet signal chain models (the firmware's other kinds
#: target peripherals a fleet device does not carry).
SIGNAL_FAULT_KINDS = frozenset(
    {
        FaultKind.ADC_GLITCH,
        FaultKind.ADC_STUCK,
        FaultKind.SENSOR_OCCLUSION,
        FaultKind.SENSOR_DROPOUT,
    }
)

_SMOOTHING_CHOICES = (1, 3, 5)
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
    return stream_rng(seed, BATCH_STREAM, index, purpose)


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
    # pure interpolation arithmetic.
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
    """A device's fixed parameters: its specimen, island map and thresholds.

    Everything here is derived once from the spec and the device's
    specimen stream; :class:`ScalarDeviceEngine` holds the state that
    changes tick by tick.
    """

    __slots__ = (
        "spec",
        "mapping_sensor",
        "island_map",
        "cycle_time_s",
        "corruption_probability",
        "noise_sigma",
        "floor_voltage",
        "peak_voltage",
        "saturation",
        "fast_threshold_code",
        "reentry_code",
        "max_plausible_delta",
    )

    def __init__(self, spec: BatchDeviceSpec, seed: int) -> None:
        self.spec = spec
        surface = spec.surface
        ambient = spec.ambient
        specimen_rng = device_stream(seed, spec.index, _SUB_SPECIMEN)
        specimen = GP2D120.specimen(specimen_rng, surface=surface, ambient=ambient)
        params = specimen.params
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
        # Thresholds exactly as Firmware derives them.
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

    def padded_waypoints(self) -> tuple[list[float], list[float]]:
        """Waypoint times and distances plus one ``(+inf, last)`` pad.

        The pad makes the last segment's interpolation collapse to
        ``d_last + 0.0 * 0.0`` exactly, so the engine needs no
        end-of-trajectory branch.
        """
        times = [t for t, _d in self.spec.waypoints]
        dists = [d for _t, d in self.spec.waypoints]
        times.append(float("inf"))
        dists.append(dists[-1])
        return times, dists


class _DeviceFaults:
    """A faulted device's fault runtime.

    Mirrors the :mod:`repro.faults` hook semantics for the signal-path
    kinds: ADC_STUCK latches the first code seen in a window and wins
    over ADC_GLITCH; SENSOR_OCCLUSION beats SENSOR_DROPOUT; windows are
    half-open ``[start, end)`` and expiry triggers the firmware's
    re-acquire reset.
    """

    def __init__(
        self, build: _DeviceBuild, seed: int, index: int
    ) -> None:
        windows = sorted(
            build.spec.fault_windows, key=lambda w: (w.start_s, w.end_s)
        )
        self._windows = windows
        self._pending = sorted(windows, key=lambda w: w.end_s)
        self._stuck: dict[int, int] = {}
        self._occlusion_volts = {
            id(w): build.mapping_sensor.ideal_voltage(float(w.magnitude))
            for w in windows
            if w.kind is FaultKind.SENSOR_OCCLUSION
        }
        self._floor = build.floor_voltage
        has_glitch = any(w.kind is FaultKind.ADC_GLITCH for w in windows)
        self._glitch_gate = (
            device_stream(seed, index, _SUB_GLITCH_GATE) if has_glitch else None
        )
        self._glitch_value = (
            device_stream(seed, index, _SUB_GLITCH_VALUE) if has_glitch else None
        )

    def service(self, now: float) -> bool:
        """Pop expired windows; True if the signal chain must re-acquire."""
        reset = False
        while self._pending and self._pending[0].end_s <= now:
            self._pending.pop(0)
            reset = True
        return reset

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
    """One fleet device, stepped with plain scalar Python.

    Reuses the real scalar components wherever the dedicated-stream
    layout allows (``ideal_voltage``, a real :class:`ADC` with its
    fault-hook plumbing, :class:`MedianFilter`, ``IslandMap.lookup``).
    ``None``-style firmware state is encoded with ``-1`` sentinels, so a
    state snapshot is a tuple of plain numbers.
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
        # counters (the per-device columns of a FLEET result row)
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
        """Comparable firmware-state snapshot."""
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


class DeviceBatch:
    """A block of fleet devices, one :class:`ScalarDeviceEngine` each.

    ``step(now)`` advances every device by one firmware tick, in row
    order, and returns the number of device-ticks performed.  Devices
    share nothing: each one's streams derive from ``(seed, index)``, so
    neither its row nor the rest of the block changes what it computes.
    """

    def __init__(self, specs: Sequence[BatchDeviceSpec], seed: int) -> None:
        if not specs:
            raise ValueError("DeviceBatch needs at least one device spec")
        self.specs = list(specs)
        self.seed = seed
        self.engines = [ScalarDeviceEngine(spec, seed) for spec in self.specs]
        self.ticks = 0

    def step(self, now: float) -> int:
        """Advance every device by one tick; returns device-ticks done."""
        for engine in self.engines:
            engine.step(now)
        self.ticks += 1
        return len(self.engines)

    def state(self, row: int) -> tuple:
        """Device ``row``'s firmware-state snapshot."""
        return self.engines[row].state()

    def counters(self, row: int) -> tuple:
        return self.engines[row].counters()

    def result_rows(self) -> list[tuple]:
        """One plain-scalar row per device (fleet experiment payload)."""
        rows = []
        for engine in self.engines:
            spec = engine.spec
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
                    *engine.counters(),
                    engine.filtered_code,
                    engine.highlight,
                )
            )
        return rows
