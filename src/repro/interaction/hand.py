"""Arm/hand plant: how the holding hand actually moves the device.

The DistScroll is positioned by moving the whole device along the line
between hand and body (Figure 1).  Human point-to-point arm movements are
well described by **minimum-jerk trajectories** (Flash & Hogan 1985):
smooth bell-shaped velocity profiles between rest points.  On top of the
voluntary trajectory rides **physiological tremor** — a small 6–12 Hz
oscillation whose amplitude grows with arm extension and with fatigue, and
which gloves/clothing dampen or (for heavy mittens) amplify.

The :class:`Hand` updates the pose on a fixed 120 Hz grid and writes each
update's true distance into the board pose, closing the physical loop:
firmware reads what the hand does.  The updates are evaluated on demand.
The GP2D120 holds its output for a ~38 ms measurement cycle, so the
device sees the hand only ~26 times a second: the board brings the hand
up to date when its sensor starts a new measurement, and the kernel
dispatches two hand events per ``run_until`` window instead of one per
update.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.hardware.pose import DrivenPose
from repro.sim.kernel import Event, Simulator

__all__ = ["minimum_jerk", "Hand"]

_TWO_PI = 2.0 * math.pi

#: Most updates one tremor block pre-draws: a long window takes several
#: blocks, which keeps the array (and the count loop) small.
_MAX_BLOCK_UPDATES = 512


def minimum_jerk(tau: float) -> float:
    """The minimum-jerk position profile on normalized time [0, 1].

    ``s(τ) = 10τ³ − 15τ⁴ + 6τ⁵`` — zero velocity and acceleration at both
    ends, peak velocity at the midpoint.
    """
    tau = min(max(tau, 0.0), 1.0)
    return tau**3 * (10.0 - 15.0 * tau + 6.0 * tau * tau)


class Hand:
    """The hand holding the device, on a fixed grid of pose updates.

    Parameters
    ----------
    sim:
        Shared simulator.
    write_pose:
        Callback receiving each update's true distance (cm); normally the
        board's :meth:`~repro.hardware.board.DistScrollBoard.set_distance`.
        It must not call back into the hand.
    start_cm:
        Initial rest distance.
    tremor_rms_cm:
        RMS amplitude of physiological tremor at the hand (≈0.05–0.15 cm
        for a healthy adult holding a light object).
    tremor_hz:
        Center frequency of the tremor band.
    update_hz:
        Pose update rate (well above the firmware and tremor rates).
    rng:
        Noise generator; ``None`` disables tremor and endpoint noise.

    Raises
    ------
    ValueError
        If ``start_cm`` or ``tremor_rms_cm`` is not finite, if
        ``tremor_rms_cm`` is negative, or if ``update_hz`` is not a finite
        positive rate.  Any of them would otherwise write a NaN pose (or
        silently no tremor) on every update.

    Notes
    -----
    The update grid starts at the construction time and steps by
    ``t = t + 1 / update_hz``.  Each update runs the same float operations
    on the same draws, and ``write_pose`` receives every update's pose in
    grid order, but the kernel does not dispatch one event per update:

    * The hand's event fires at its first grid point in a ``run_until``
      window (drawing the window's tremor block, see :meth:`_draw_block`)
      and re-arms once, with ``priority=1``, on the window's last grid
      point ``<= horizon``.  There it applies every pending update and
      re-arms at the next window's first point.  With no horizon
      (``run``, ``run_while``, ``step``) it re-arms at every grid point.
    * In between, a reader of the pose calls :meth:`catch_up` with the
      read time, which applies every pending update before that time.
      When ``write_pose`` is the ``set_distance`` of a
      :class:`~repro.hardware.pose.DrivenPose` (both boards), the hand
      installs :meth:`catch_up` as its ``pose_sync``, which the board
      calls when its GP2D120 starts a new measurement cycle.
    * Any other ``write_pose`` has no reader to catch the hand up, so
      the hand's event re-arms at every grid point, as with no horizon,
      and the pose is written on time.
    * Every public read or write of hand state catches up first.

    Ties are the invariant this rests on: an update exactly at a read's
    time stays pending, so it runs after the read.  That is the order a
    per-update kernel event would get, because every pose reader (the
    firmware tick, the PDA add-on's report) is armed one period, 20 ms or
    more, before it reads, while each update was armed only 1/update_hz
    before.  The window-end event's ``priority=1`` puts its update after
    every other event at that time, which is the same order.
    """

    def __init__(
        self,
        sim: Simulator,
        write_pose: Callable[[float], None],
        start_cm: float = 20.0,
        tremor_rms_cm: float = 0.08,
        tremor_hz: float = 9.0,
        update_hz: float = 120.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not math.isfinite(start_cm):
            raise ValueError(f"start distance must be finite, got {start_cm}")
        if not (math.isfinite(tremor_rms_cm) and tremor_rms_cm >= 0):
            raise ValueError(
                "tremor amplitude must be finite and >= 0, got "
                f"{tremor_rms_cm}"
            )
        if not (math.isfinite(update_hz) and update_hz > 0):
            raise ValueError(
                f"update rate must be finite and positive, got {update_hz}"
            )
        self._sim = sim
        self._write_pose = write_pose
        self._gauss = None if rng is None else rng.standard_normal
        self._bit_generator = None if rng is None else rng.bit_generator
        # The tremor block (see _draw_block): pre-drawn normals, the next
        # one to use, and the generator state before the block was drawn.
        self._draws: list[float] = []
        self._next_draw = 0
        self._state_before_draws: Optional[dict] = None
        self._tremor_rms_cm = float(tremor_rms_cm)
        self._tremor_hz = float(tremor_hz)
        self._update_period = 1.0 / float(update_hz)

        self._rest_cm = float(start_cm)
        self._move_from = float(start_cm)
        self._move_to = float(start_cm)
        self._move_start = 0.0
        self._move_duration = 0.0

        self._tremor_state = 0.0
        self._tremor_phase = 0.0
        self._total_path_cm = 0.0
        self._fatigue_units = 0.0
        self._relaxed_cm = 14.0
        self._last_position = float(start_cm)

        #: The next grid point not yet applied (``inf`` once stopped).
        self._next_update = sim.now
        self._event: Optional[Event] = sim.schedule(0.0, self._first_point)
        owner = getattr(write_pose, "__self__", None)
        #: Whether a reader can bring the pose up to date (see the notes).
        self._on_demand = isinstance(owner, DrivenPose)
        if self._on_demand:
            owner.pose_sync = self.catch_up
        self._write_pose(self._rest_cm)

    # ------------------------------------------------------------------
    # voluntary movement
    # ------------------------------------------------------------------
    def move_to(self, target_cm: float, duration_s: float) -> None:
        """Begin a minimum-jerk reach to ``target_cm`` over ``duration_s``.

        A new command preempts any movement in flight, starting from the
        current (possibly mid-flight) position — which is how humans chain
        corrective submovements.

        Raises
        ------
        ValueError
            If ``target_cm`` is not finite, or ``duration_s`` is not a
            finite positive number.  A NaN target would otherwise reach
            the board pose and only fail later, inside a firmware tick.
        """
        if not math.isfinite(target_cm):
            raise ValueError(f"target must be finite, got {target_cm}")
        if not (math.isfinite(duration_s) and duration_s > 0):
            raise ValueError(
                f"duration must be finite and positive, got {duration_s}"
            )
        self.catch_up(self._sim.now)
        self._move_from = self.position(include_tremor=False)
        self._move_to = float(target_cm)
        self._move_start = self._sim.now
        self._move_duration = float(duration_s)
        self._rest_cm = float(target_cm)

    @property
    def is_moving(self) -> bool:
        """Whether a voluntary reach is still in flight."""
        return self._sim.now < self._move_start + self._move_duration

    @property
    def target_cm(self) -> float:
        """The current voluntary movement endpoint."""
        return self._move_to

    def position(self, include_tremor: bool = True) -> float:
        """True hand distance right now."""
        if include_tremor:
            self.catch_up(self._sim.now)
        if self._move_duration <= 0:
            voluntary = self._rest_cm
        else:
            tau = (self._sim.now - self._move_start) / self._move_duration
            s = minimum_jerk(tau)
            voluntary = self._move_from + (self._move_to - self._move_from) * s
        if include_tremor:
            return voluntary + self._tremor_state
        return voluntary

    @property
    def tremor_rms_cm(self) -> float:
        """RMS tremor amplitude (cm); a change applies from now on."""
        return self._tremor_rms_cm

    @tremor_rms_cm.setter
    def tremor_rms_cm(self, value: float) -> None:
        self.catch_up(self._sim.now)
        self._tremor_rms_cm = value

    @property
    def tremor_hz(self) -> float:
        """Center frequency of the tremor band; a change applies from now on."""
        return self._tremor_hz

    @tremor_hz.setter
    def tremor_hz(self, value: float) -> None:
        self.catch_up(self._sim.now)
        self._tremor_hz = value

    @property
    def total_path_cm(self) -> float:
        """Distance the hand has travelled, tremor included (cm)."""
        self.catch_up(self._sim.now)
        return self._total_path_cm

    @property
    def fatigue_units(self) -> float:
        """Accumulated biomechanical effort (arbitrary fatigue units).

        Holding the arm extended costs per-second effort growing with
        extension; moving adds effort per cm of travel.  A proxy for the
        fatigue question the paper raises about tilt interfaces and for
        the §7 range question.
        """
        self.catch_up(self._sim.now)
        return self._fatigue_units

    def stop(self) -> None:
        """Halt the hand updates (end of a session).

        Unused tremor draws are given back, so the generator stands where
        one-draw-per-update would have left it.
        """
        self.catch_up(self._sim.now)
        self._next_update = math.inf
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._return_draws()

    # ------------------------------------------------------------------
    # the update grid
    # ------------------------------------------------------------------
    def catch_up(self, time_s: float) -> None:
        """Apply every pending update before ``time_s``.

        A reader calls this with the current simulated time before it
        reads the pose; an update exactly at ``time_s`` stays pending
        (see the class notes on ties).  One loop with the hand's state in
        locals runs each update's operations in the order a per-update
        event ran them, on the same draws.
        """
        t = self._next_update
        if not t < time_s:
            return
        dt = self._update_period
        rms = self._tremor_rms_cm
        gauss = self._gauss
        tremor_on = not (gauss is None or rms <= 0.0)
        if not tremor_on and self._next_draw < len(self._draws):
            self._return_draws()
        draws = self._draws
        n_draws = len(draws)
        i = self._next_draw
        # ``_TWO_PI * hz * dt`` is the left part of the per-update product,
        # so hoisting it keeps every phase step's float operations.
        phase_step = _TWO_PI * self._tremor_hz * dt
        phase = self._tremor_phase
        tremor = self._tremor_state
        rest = self._rest_cm
        move_from = self._move_from
        span = self._move_to - move_from
        move_start = self._move_start
        duration = self._move_duration
        relaxed = self._relaxed_cm
        last = self._last_position
        path = self._total_path_cm
        fatigue = self._fatigue_units
        write_pose = self._write_pose
        while t < time_s:
            if tremor_on:
                if i == n_draws:
                    i = self._draw_block(t)
                    draws = self._draws
                    n_draws = len(draws)
                if i < 0:
                    jitter = gauss()
                    broadband_z = gauss()
                else:
                    jitter = draws[i]
                    broadband_z = draws[i + 1]
                    i += 2
                # A noisy oscillator: sinusoid with phase-jittered
                # frequency plus a small broadband component — matches the
                # 6–12 Hz tremor band.  ``0.0 + s * z`` is
                # ``rng.normal(0.0, s)``'s own sum on the same draw ``z``.
                phase = phase + phase_step * (1.0 + (0.0 + 0.1 * jitter))
                broadband = 0.0 + 0.6 * broadband_z
                tremor = rms * (0.8 * math.sin(phase) + 0.45 * broadband)
            else:
                tremor = 0.0

            if duration <= 0:
                voluntary = rest
            else:
                tau = (t - move_start) / duration
                if tau >= 1.0:
                    # minimum_jerk() is exactly 1.0 once the reach is over.
                    voluntary = move_from + span
                else:
                    if tau < 0.0:
                        tau = 0.0
                    s = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau * tau)
                    voluntary = move_from + span * s
            position = voluntary + tremor

            travel = abs(position - last)
            path += travel
            extension = position - relaxed
            if extension < 0.0:
                extension = 0.0
            extension /= relaxed
            fatigue += (0.25 + extension) * dt + 0.06 * travel
            last = position
            write_pose(0.5 if position < 0.5 else position)
            t = t + dt
        self._next_update = t
        if i >= 0:
            self._next_draw = i
        self._tremor_phase = phase
        self._tremor_state = tremor
        self._last_position = last
        self._total_path_cm = path
        self._fatigue_units = fatigue

    def _first_point(self) -> None:
        """The hand's event at its first grid point in a window.

        Applies that update, then re-arms on the window's last grid point
        ``<= horizon`` with ``priority=1``, or at the next grid point when
        there is no horizon, no reader to catch the hand up, no later
        point in the window, or the window-end event would not land
        exactly on the grid float.
        """
        sim = self._sim
        now = sim.now
        self.catch_up(math.nextafter(now, math.inf))
        horizon = sim.horizon
        if horizon is not None and self._on_demand:
            _count, last = self._grid_to(now, horizon, math.inf)
            if last > now:
                event = sim.schedule(last - now, self._window_end, priority=1)
                if event.time == last:
                    self._event = event
                    return
                event.cancel()
        self._event = sim.schedule(self._update_period, self._first_point)

    def _window_end(self) -> None:
        """The hand's event at the window's last grid point: apply every
        pending update, this one included, and re-arm at the next point."""
        sim = self._sim
        self.catch_up(math.nextafter(sim.now, math.inf))
        self._event = sim.schedule(self._update_period, self._first_point)

    def _grid_to(
        self, t: float, horizon: float, limit: float
    ) -> tuple[int, float]:
        """Count the grid points from ``t`` on that are ``<= horizon``.

        At most ``limit`` of them; returns the count and the last point
        counted (``t`` itself when none is).
        """
        period = self._update_period
        n = 0
        last = t
        while t <= horizon and n < limit:
            n += 1
            last = t
            t = t + period
        return n, last

    def _draw_block(self, t: float) -> int:
        """Pre-draw the tremor normals from grid point ``t`` to the
        window's end; the index of the first.

        The participant generator is shared with the user model, but
        inside a :meth:`~repro.sim.kernel.Simulator.run_until` window only
        the hand draws from it: user code runs between windows.  So the
        two normals of every update up to the window's horizon come from
        one ``standard_normal(2 n)`` call, which is stream-identical to
        the ``2 n`` scalar draws the updates would make one by one.  ``n``
        is counted on the update grid (``t + period`` while
        ``t <= horizon``).  With no horizon (``run``, ``run_while``,
        ``step``) each update draws its own two normals: returns ``-1``.
        :meth:`stop` and a tremor switched off mid-window give the unused
        draws back; a window that a raising callback aborts does not.
        """
        horizon = self._sim.horizon
        if horizon is None:
            return -1
        n, _last = self._grid_to(t, horizon, _MAX_BLOCK_UPDATES)
        assert self._bit_generator is not None and self._gauss is not None
        self._state_before_draws = self._bit_generator.state
        self._draws = self._gauss(2 * n).tolist()
        self._next_draw = 0
        return 0

    def _return_draws(self) -> None:
        """Rewind the generator past the block's unused draws.

        Restores the state saved before the block and redraws the consumed
        count, which leaves the stream where per-update draws would have.
        """
        used = self._next_draw
        if used < len(self._draws):
            assert self._bit_generator is not None and self._gauss is not None
            self._bit_generator.state = self._state_before_draws
            self._gauss(used)
        self._draws = []
        self._next_draw = 0
        self._state_before_draws = None
