"""Arm/hand plant: how the holding hand actually moves the device.

The DistScroll is positioned by moving the whole device along the line
between hand and body (Figure 1).  Human point-to-point arm movements are
well described by **minimum-jerk trajectories** (Flash & Hogan 1985):
smooth bell-shaped velocity profiles between rest points.  On top of the
voluntary trajectory rides **physiological tremor** — a small 6–12 Hz
oscillation whose amplitude grows with arm extension and with fatigue, and
which gloves/clothing dampen or (for heavy mittens) amplify.

The :class:`Hand` advances on the shared simulator and writes the current
true distance into the board pose each update, closing the physical loop:
firmware reads what the hand does.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.sim.kernel import PeriodicTask, Simulator

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
    """The hand holding the device, simulated at a fixed update rate.

    Parameters
    ----------
    sim:
        Shared simulator.
    write_pose:
        Callback receiving the current true distance (cm); normally the
        board's :meth:`~repro.hardware.board.DistScrollBoard.set_distance`.
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
        self.tremor_rms_cm = float(tremor_rms_cm)
        self.tremor_hz = float(tremor_hz)
        self._update_period = 1.0 / float(update_hz)

        self._rest_cm = float(start_cm)
        self._move_from = float(start_cm)
        self._move_to = float(start_cm)
        self._move_start = 0.0
        self._move_duration = 0.0

        self._tremor_state = 0.0
        self._tremor_phase = 0.0
        self.total_path_cm = 0.0
        #: Accumulated biomechanical effort (arbitrary fatigue units):
        #: holding the arm extended costs per-second effort growing with
        #: extension; moving adds effort per cm of travel.  A proxy for
        #: the fatigue question the paper raises about tilt interfaces
        #: and for the §7 range question.
        self.fatigue_units = 0.0
        self._relaxed_cm = 14.0
        self._last_position = float(start_cm)

        self._task = PeriodicTask(
            sim, self._update_period, self._update, phase=0.0
        )
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
        if self._move_duration <= 0:
            voluntary = self._rest_cm
        else:
            tau = (self._sim.now - self._move_start) / self._move_duration
            s = minimum_jerk(tau)
            voluntary = self._move_from + (self._move_to - self._move_from) * s
        if include_tremor:
            return voluntary + self._tremor_state
        return voluntary

    def stop(self) -> None:
        """Halt the hand updates (end of a session).

        Unused tremor draws are given back, so the generator stands where
        one-draw-per-update would have left it.
        """
        self._task.stop()
        self._return_draws()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _draw_block(self) -> int:
        """Pre-draw this window's tremor normals; the index of the first.

        The participant generator is shared with the user model, but
        inside a :meth:`~repro.sim.kernel.Simulator.run_until` window only
        the hand draws from it: user code runs between windows.  So the
        two normals of every update up to the window's horizon come from
        one ``standard_normal(2 n)`` call, which is stream-identical to
        the ``2 n`` scalar draws the updates would make one by one.  ``n``
        is counted on the grid the kernel re-arms on (``t + period`` while
        ``t <= horizon``).  With no horizon (``run``, ``run_while``,
        ``step``) the update draws its own two normals: returns ``-1``.
        :meth:`stop` and a tremor switched off mid-window give the unused
        draws back; a window that a raising callback aborts does not.
        """
        horizon = self._sim.horizon
        if horizon is None:
            return -1
        period = self._update_period
        t = self._sim.now
        n = 0
        while t <= horizon and n < _MAX_BLOCK_UPDATES:
            n += 1
            t = t + period
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

    def _update(self) -> None:
        # One update: the tremor step, position() and the fatigue and pose
        # bookkeeping, fused into one frame.  Every float operation runs in
        # the order the unfused methods ran it, on the same two draws.
        rms = self.tremor_rms_cm
        dt = self._update_period
        gauss = self._gauss
        if gauss is None or rms <= 0.0:
            if self._next_draw < len(self._draws):
                self._return_draws()
            tremor = 0.0
        else:
            i = self._next_draw
            if i == len(self._draws):
                i = self._draw_block()
            if i < 0:
                jitter = gauss()
                broadband_z = gauss()
            else:
                draws = self._draws
                jitter = draws[i]
                broadband_z = draws[i + 1]
                self._next_draw = i + 2
            # A noisy oscillator: sinusoid with phase-jittered frequency
            # plus a small broadband component — matches the 6–12 Hz
            # tremor band.  ``0.0 + s * z`` is ``rng.normal(0.0, s)``'s own
            # sum on the same standard-normal draw ``z``.
            phase = self._tremor_phase + (
                _TWO_PI * self.tremor_hz * dt * (1.0 + (0.0 + 0.1 * jitter))
            )
            self._tremor_phase = phase
            broadband = 0.0 + 0.6 * broadband_z
            tremor = rms * (0.8 * math.sin(phase) + 0.45 * broadband)
        self._tremor_state = tremor

        duration = self._move_duration
        if duration <= 0:
            voluntary = self._rest_cm
        else:
            move_from = self._move_from
            tau = (self._sim.now - self._move_start) / duration
            if tau >= 1.0:
                # minimum_jerk() is exactly 1.0 once the reach is over.
                voluntary = move_from + (self._move_to - move_from)
            else:
                if tau < 0.0:
                    tau = 0.0
                s = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau * tau)
                voluntary = move_from + (self._move_to - move_from) * s
        position = voluntary + tremor

        travel = abs(position - self._last_position)
        self.total_path_cm += travel
        extension = position - self._relaxed_cm
        if extension < 0.0:
            extension = 0.0
        extension /= self._relaxed_cm
        self.fatigue_units += (0.25 + extension) * dt + 0.06 * travel
        self._last_position = position
        self._write_pose(0.5 if position < 0.5 else position)
