"""Fault injection for the simulated DistScroll hardware stack.

Section 4.2 of the paper is a catalogue of failure modes — the ambiguous
fold-back below 4 cm, light and surface disturbances, readings the
firmware must reject as physically impossible — yet a simulation that
only ever exercises the happy path never tests the mitigations.  This
module supplies the missing stress: a seeded, simulator-clock-driven
:class:`FaultPlan` describing *when* and *how hard* each part of the
hardware misbehaves, plus the hook implementations the hardware models
consult on every operation.

Fault taxonomy (one :class:`FaultKind` per injection point):

================== ====================================================
kind               effect while a window is active
================== ====================================================
ADC_GLITCH         each conversion is corrupted to a random code with
                   per-sample probability ``rate``
ADC_STUCK          the converter latches the first code seen in the
                   window and repeats it (stuck-at fault)
I2C_ERROR          each bus transaction attempt fails (NACK/arbitration
                   loss) with probability ``rate``; the bus retries up
                   to its bound, then raises ``I2CError``
DISPLAY_RESET      a display controller power-on-resets (blank panel)
                   once per window; the firmware watchdog re-renders
RF_DROP            each RF packet is lost with probability ``rate``
RF_DUPLICATE       each RF packet is delivered twice with probability
                   ``rate``
BATTERY_SAG        ``magnitude`` volts of extra terminal sag (a failing
                   cell or connector); deep sag browns the board out
                   until the window clears
SENSOR_OCCLUSION   something blocks the beam at ``magnitude`` cm — a
                   near, fold-back-region reading (light/surface
                   disturbance)
SENSOR_DROPOUT     no reflection returns; the sensor outputs its floor
                   voltage as if nothing were in range
================== ====================================================

Every fault lives inside a :class:`FaultWindow` with a start, a duration
and (for per-opportunity kinds) a probability.  The plan is installed on
an assembled board with :meth:`FaultPlan.install`; from then on every
injection and every firmware recovery is recorded on the run's
:class:`~repro.sim.trace.Tracer` (channels ``"faults"`` and
``"fault.recovery"``), so tests can assert that each injected fault was
paired with a recovery.  All randomness is drawn from generators spawned
off the simulator's seed sequence: two runs with the same seed produce
byte-identical traces, faults included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.obs.recorder import Recorder, active_recorder
from repro.sim import channels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (board -> plan)
    from repro.hardware.board import DistScrollBoard
    from repro.sim.trace import Tracer

__all__ = [
    "FaultKind",
    "FaultWindow",
    "FaultPlan",
    "DEFAULT_SWEEP_KINDS",
]

#: Trace channel receiving one record per injected fault (registered in
#: :mod:`repro.sim.channels`; kept as a module alias for back-compat).
FAULT_CHANNEL = channels.FAULTS
#: Trace channel receiving one record per firmware recovery action.
RECOVERY_CHANNEL = channels.FAULT_RECOVERY


class FaultKind(Enum):
    """The injection points threaded through the hardware layer."""

    ADC_GLITCH = "adc-glitch"
    ADC_STUCK = "adc-stuck"
    I2C_ERROR = "i2c-error"
    DISPLAY_RESET = "display-reset"
    RF_DROP = "rf-drop"
    RF_DUPLICATE = "rf-duplicate"
    BATTERY_SAG = "battery-sag"
    SENSOR_OCCLUSION = "sensor-occlusion"
    SENSOR_DROPOUT = "sensor-dropout"


#: Kinds whose effect is continuous for the whole window (no per-event roll).
_CONTINUOUS_KINDS = frozenset(
    {
        FaultKind.ADC_STUCK,
        FaultKind.BATTERY_SAG,
        FaultKind.SENSOR_OCCLUSION,
        FaultKind.SENSOR_DROPOUT,
    }
)

#: Default ``magnitude`` per kind (kind-specific meaning, see FaultWindow).
_DEFAULT_MAGNITUDE = {
    FaultKind.BATTERY_SAG: 3.5,  # volts of extra sag: enough to brown out
    FaultKind.SENSOR_OCCLUSION: 2.2,  # occluder distance, cm (fold-back)
}

#: The kinds the robustness sweep turns on together.
DEFAULT_SWEEP_KINDS: tuple[FaultKind, ...] = (
    FaultKind.ADC_GLITCH,
    FaultKind.I2C_ERROR,
    FaultKind.DISPLAY_RESET,
    FaultKind.RF_DROP,
    FaultKind.SENSOR_OCCLUSION,
    FaultKind.SENSOR_DROPOUT,
)


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault: a kind active over ``[start_s, end_s)``.

    Attributes
    ----------
    kind:
        What misbehaves.
    start_s, duration_s:
        Window position on the simulated clock.
    rate:
        Per-opportunity probability for event-like kinds (each ADC
        conversion, bus attempt, RF packet).  Continuous kinds (stuck-at,
        sag, occlusion, dropout) apply for the whole window regardless.
    magnitude:
        Kind-specific strength: sag volts for ``BATTERY_SAG``, occluder
        distance in cm for ``SENSOR_OCCLUSION``; unused elsewhere.
    target:
        Optional scoping — an ADC channel number or display name; ``None``
        hits every instance.
    """

    kind: FaultKind
    start_s: float
    duration_s: float
    rate: float = 1.0
    magnitude: float = float("nan")
    target: Optional[int | str] = None

    def __post_init__(self) -> None:
        if self.start_s < 0.0:
            raise ValueError(f"window start must be >= 0, got {self.start_s}")
        if self.duration_s <= 0.0:
            raise ValueError(
                f"window duration must be positive, got {self.duration_s}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if np.isnan(self.magnitude):
            object.__setattr__(
                self, "magnitude", _DEFAULT_MAGNITUDE.get(self.kind, 1.0)
            )

    @property
    def end_s(self) -> float:
        """Time the window closes."""
        return self.start_s + self.duration_s

    def active(self, time_s: float) -> bool:
        """Whether the window covers ``time_s`` (half-open interval)."""
        return self.start_s <= time_s < self.end_s


class FaultPlan:
    """A schedule of fault windows, installable on an assembled board.

    The plan is inert until :meth:`install` binds it to a board's
    simulator and tracer; from then on the hardware hooks consult it on
    every operation.  One plan drives one board for one run.

    Parameters
    ----------
    windows:
        The fault schedule.  Windows may overlap freely (even within a
        kind: the earliest active window wins).
    """

    def __init__(self, windows: Iterable[FaultWindow] = ()) -> None:
        self.windows: list[FaultWindow] = sorted(
            windows, key=lambda w: (w.start_s, w.end_s, w.kind.value)
        )
        self.injections: Counter[FaultKind] = Counter()
        self.recoveries: Counter[FaultKind] = Counter()
        self._sim = None
        self._tracer: Optional["Tracer"] = None
        self._obs: Optional[Recorder] = None
        self._rng: Optional[np.random.Generator] = None
        #: window ids (indices into ``windows``) not yet expired+recovered,
        #: kept sorted by end time for O(1) polling.
        self._pending = sorted(
            range(len(self.windows)), key=lambda i: self.windows[i].end_s
        )
        #: per-window once-only state
        self._noted: set[int] = set()  # continuous kinds: injection recorded
        self._tripped: set[int] = set()  # DISPLAY_RESET: fired once
        self._stuck_codes: dict[int, int] = {}  # ADC_STUCK latches

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_intensity(
        cls,
        intensity: float,
        duration_s: float,
        kinds: Sequence[FaultKind] = DEFAULT_SWEEP_KINDS,
        period_s: float = 2.0,
        start_s: float = 0.3,
    ) -> "FaultPlan":
        """Deterministic duty-cycled schedule for the robustness sweep.

        Each kind gets one window per ``period_s``, phase-staggered so the
        kinds do not all strike at once; window width and per-opportunity
        rate both scale with ``intensity`` in [0, 1], so the fraction of
        run time under fault grows monotonically with intensity.
        """
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        if intensity == 0.0:
            return cls(())
        windows: list[FaultWindow] = []
        width = max(intensity * period_s * 0.45, 0.05)
        rate = float(min(0.95, max(intensity, 0.05)))
        for k_i, kind in enumerate(kinds):
            phase = start_s + (k_i / max(len(kinds), 1)) * period_s * 0.5
            t0 = phase
            while t0 + width < duration_s:
                windows.append(
                    FaultWindow(kind, start_s=t0, duration_s=width, rate=rate)
                )
                t0 += period_s
        return cls(windows)

    @classmethod
    def random(
        cls,
        duration_s: float,
        intensity: float,
        seed: int = 0,
        kinds: Sequence[FaultKind] = DEFAULT_SWEEP_KINDS,
        mean_window_s: float = 0.4,
    ) -> "FaultPlan":
        """Stochastic schedule: Poisson window arrivals per kind.

        Two plans built with the same ``seed`` are identical; different
        seeds produce different schedules (the determinism regression
        tests pin both properties).
        """
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        rng = np.random.default_rng(seed)
        windows: list[FaultWindow] = []
        expected = intensity * duration_s / max(mean_window_s, 1e-6) * 0.5
        for kind in kinds:
            count = int(rng.poisson(expected))
            for _ in range(count):
                start = float(rng.uniform(0.0, max(duration_s - 0.05, 0.0)))
                width = float(
                    np.clip(rng.exponential(mean_window_s), 0.05, duration_s)
                )
                width = min(width, duration_s - start)
                if width <= 0.0:
                    continue
                windows.append(
                    FaultWindow(
                        kind,
                        start_s=start,
                        duration_s=width,
                        rate=float(min(0.95, max(intensity, 0.05))),
                    )
                )
        return cls(windows)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(
        self, board: "DistScrollBoard", tracer: Optional["Tracer"] = None
    ) -> "FaultPlan":
        """Thread the plan's hooks through an assembled board.

        Must be called once, before the simulation runs.  Returns the
        plan for chaining.
        """
        if self._sim is not None:
            raise RuntimeError("this FaultPlan is already installed on a board")
        self._sim = board.sim
        self._tracer = tracer
        self._rng = board.sim.spawn_rng()
        board.fault_plan = self
        self._obs = active_recorder()

        board.adc.fault_hook = self._adc_hook
        board.i2c.fault_hook = self._i2c_hook
        board.rf_link.fault_hook = self._rf_hook
        board.battery.fault_hook = self._battery_hook
        board.display_top.fault_hook = self._make_display_hook("top")
        board.display_bottom.fault_hook = self._make_display_hook("bottom")
        board.distance_sensor.fault_hook = self._make_sensor_hook(
            board.distance_sensor
        )
        if board.spare_distance_sensor is not None:
            board.spare_distance_sensor.fault_hook = self._make_sensor_hook(
                board.spare_distance_sensor
            )
        return self

    # ------------------------------------------------------------------
    # schedule queries
    # ------------------------------------------------------------------
    def active_window(
        self, kind: FaultKind, time_s: float, target: Optional[int | str] = None
    ) -> Optional[tuple[int, FaultWindow]]:
        """Earliest active window of ``kind`` covering ``time_s``.

        Returns ``(window_id, window)`` or ``None``.  ``target`` filters
        windows scoped to a specific channel/display: an unscoped window
        (``target is None``) matches everything.
        """
        for window_id, window in enumerate(self.windows):
            if window.kind is not kind:
                continue
            if window.start_s > time_s:
                break
            if not window.active(time_s):
                continue
            if window.target is not None and target is not None and (
                window.target != target
            ):
                continue
            return window_id, window
        return None

    def expired_windows(self, time_s: float) -> list[tuple[int, FaultWindow]]:
        """Pop windows whose end has passed and which still await recovery.

        The firmware calls this every tick; for each returned window it
        performs its recovery action and then calls :meth:`record_recovery`.
        """
        expired: list[tuple[int, FaultWindow]] = []
        while self._pending and self.windows[self._pending[0]].end_s <= time_s:
            window_id = self._pending.pop(0)
            expired.append((window_id, self.windows[window_id]))
        return expired

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled window has expired and been polled."""
        return not self._pending

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def record_injection(
        self, window_id: int, time_s: float, detail: str
    ) -> None:
        """Count one injected fault and publish it on the trace."""
        window = self.windows[window_id]
        self.injections[window.kind] += 1
        if self._obs is not None:
            self._obs.counter("faults.injected")
            self._obs.counter(f"faults.injected.{window.kind.value}")
        if self._tracer is not None:
            self._tracer.record(
                FAULT_CHANNEL, time_s, (window.kind.value, window_id, detail)
            )

    def record_recovery(
        self, window_id: int, time_s: float, action: str
    ) -> None:
        """Count one firmware recovery and publish it on the trace."""
        window = self.windows[window_id]
        self.recoveries[window.kind] += 1
        if self._obs is not None:
            self._obs.counter("faults.recovered")
            self._obs.emit_span(
                f"fault.{window.kind.value}",
                window.start_s,
                max(time_s, window.start_s),
                {"action": action, "window": window_id},
            )
        if self._tracer is not None:
            self._tracer.record(
                RECOVERY_CHANNEL, time_s, (window.kind.value, window_id, action)
            )

    def _note_once(self, window_id: int, time_s: float, detail: str) -> None:
        """Record a continuous fault's injection once per window."""
        if window_id not in self._noted:
            self._noted.add(window_id)
            self.record_injection(window_id, time_s, detail)

    def _roll(self, window: FaultWindow) -> bool:
        """Per-opportunity Bernoulli draw for event-like kinds."""
        assert self._rng is not None
        return bool(self._rng.random() < window.rate)

    @property
    def total_injections(self) -> int:
        """Injected fault events across all kinds."""
        return sum(self.injections.values())

    @property
    def total_recoveries(self) -> int:
        """Recovery events across all kinds."""
        return sum(self.recoveries.values())

    # ------------------------------------------------------------------
    # hardware hooks
    # ------------------------------------------------------------------
    def _now(self) -> float:
        assert self._sim is not None, "FaultPlan used before install()"
        return self._sim.now

    def _adc_hook(self, time_s: float, channel: int, code: int) -> int:
        """ADC hook: stuck-at latching, then random glitch corruption."""
        hit = self.active_window(FaultKind.ADC_STUCK, time_s, target=channel)
        if hit is not None:
            window_id, _ = hit
            stuck = self._stuck_codes.setdefault(window_id, code)
            self._note_once(window_id, time_s, f"stuck@{stuck}")
            return stuck
        hit = self.active_window(FaultKind.ADC_GLITCH, time_s, target=channel)
        if hit is not None:
            window_id, window = hit
            if self._roll(window):
                assert self._rng is not None
                corrupted = int(self._rng.integers(0, 1024))
                self.record_injection(
                    window_id, time_s, f"ch{channel}:{code}->{corrupted}"
                )
                return corrupted
        return code

    def _i2c_hook(self) -> bool:
        """I2C hook: ``True`` fails the current transaction attempt."""
        now = self._now()
        hit = self.active_window(FaultKind.I2C_ERROR, now)
        if hit is None:
            return False
        window_id, window = hit
        if not self._roll(window):
            return False
        self.record_injection(window_id, now, "nack")
        return True

    def _rf_hook(self) -> Optional[str]:
        """RF hook: ``"drop"``, ``"duplicate"`` or ``None`` per packet."""
        now = self._now()
        hit = self.active_window(FaultKind.RF_DROP, now)
        if hit is not None:
            window_id, window = hit
            if self._roll(window):
                self.record_injection(window_id, now, "drop")
                return "drop"
        hit = self.active_window(FaultKind.RF_DUPLICATE, now)
        if hit is not None:
            window_id, window = hit
            if self._roll(window):
                self.record_injection(window_id, now, "duplicate")
                return "duplicate"
        return None

    def _battery_hook(self) -> float:
        """Battery hook: extra terminal sag in volts."""
        now = self._now()
        hit = self.active_window(FaultKind.BATTERY_SAG, now)
        if hit is None:
            return 0.0
        window_id, window = hit
        self._note_once(window_id, now, f"sag={window.magnitude:.2f}V")
        return float(window.magnitude)

    def _make_display_hook(self, name: str):
        """Display hook: ``True`` power-on-resets the panel (once/window)."""

        def hook() -> bool:
            now = self._now()
            hit = self.active_window(FaultKind.DISPLAY_RESET, now, target=name)
            if hit is None:
                return False
            window_id, window = hit
            if window_id in self._tripped:
                return False
            if not self._roll(window):
                return False
            self._tripped.add(window_id)
            self.record_injection(window_id, now, f"reset:{name}")
            return True

        return hook

    def _make_sensor_hook(self, sensor):
        """Sensor hook: overrides the output voltage, or ``None``."""

        def hook(time_s: float, voltage: float) -> Optional[float]:
            hit = self.active_window(FaultKind.SENSOR_OCCLUSION, time_s)
            if hit is not None:
                window_id, window = hit
                self._note_once(
                    window_id, time_s, f"occluder@{window.magnitude:.1f}cm"
                )
                return sensor.ideal_voltage(float(window.magnitude))
            hit = self.active_window(FaultKind.SENSOR_DROPOUT, time_s)
            if hit is not None:
                window_id, _ = hit
                self._note_once(window_id, time_s, "dropout")
                return float(sensor.params.floor_voltage)
            return None

        return hook
