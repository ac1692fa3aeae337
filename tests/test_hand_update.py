"""The fused ``Hand._update`` against the unfused update it replaced.

``Hand._update`` computes the tremor step, ``position()`` and the
minimum-jerk profile in one frame.  The reference below is the update as
three calls (``_advance_tremor()``, ``position()``, ``minimum_jerk``),
driven on a twin generator: both hands must write the same pose floats,
accumulate the same path and fatigue, and leave both generators at the
same point.  Also covers the constructor's and ``hold_at``'s rejection of
non-finite input.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.interaction.hand import Hand, minimum_jerk
from repro.sim.kernel import PeriodicTask, Simulator


def _advance_tremor(hand: Hand, rng) -> None:
    if rng is None or hand.tremor_rms_cm <= 0.0:
        hand._tremor_state = 0.0
        return
    gauss = rng.standard_normal
    dt = hand._update_period
    hand._tremor_phase += (
        2.0 * math.pi * hand.tremor_hz * dt * (1.0 + (0.0 + 0.1 * gauss()))
    )
    periodic = math.sin(hand._tremor_phase)
    broadband = 0.0 + 0.6 * gauss()
    hand._tremor_state = hand.tremor_rms_cm * (
        0.8 * periodic + 0.45 * broadband
    )


def _position(hand: Hand) -> float:
    if hand._move_duration <= 0:
        voluntary = hand._rest_cm
    else:
        tau = (hand._sim.now - hand._move_start) / hand._move_duration
        s = minimum_jerk(tau)
        voluntary = hand._move_from + (hand._move_to - hand._move_from) * s
    return voluntary + hand._tremor_state


def _reference_update(hand: Hand, rng) -> None:
    _advance_tremor(hand, rng)
    position = _position(hand)
    travel = abs(position - hand._last_position)
    hand.total_path_cm += travel
    extension = max(position - hand._relaxed_cm, 0.0) / hand._relaxed_cm
    holding_cost = (0.25 + extension) * hand._update_period
    hand.fatigue_units += holding_cost + 0.06 * travel
    hand._last_position = position
    hand._write_pose(max(position, 0.5))


def _twin_hands(seed, start_cm, rms, with_rng):
    """``([(fused hand, poses), (reference hand, poses)], [rng, rng])``."""
    hands, rngs = [], []
    for fused in (True, False):
        sim = Simulator(seed=0)
        rng = np.random.default_rng(seed) if with_rng else None
        poses: list[float] = []
        hand = Hand(
            sim, poses.append, start_cm=start_cm, tremor_rms_cm=rms, rng=rng
        )
        if not fused:
            # Swap the update loop for the unfused reference, keeping the
            # same phase and period (the first update is at t = 0).
            hand._task.stop()
            hand._task = PeriodicTask(
                sim, hand._update_period,
                lambda hand=hand, rng=rng: _reference_update(hand, rng),
                phase=0.0,
            )
        hands.append((hand, poses))
        rngs.append(rng)
    return hands, rngs


#: ``(at_s, target_cm, duration_s)`` reaches; later ones preempt.
moves = st.lists(
    st.tuples(
        st.floats(0.0, 1.5),
        st.floats(-3.0, 35.0),
        st.floats(0.05, 0.8),
    ),
    max_size=4,
)


class TestFusedUpdateMatchesReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        start=st.floats(0.0, 35.0),
        rms=st.sampled_from([0.0, 0.05, 0.08, 0.3, 2.0]),
        with_rng=st.booleans(),
        plan=moves,
    )
    @settings(max_examples=150, deadline=None)
    def test_poses_path_fatigue_and_draws(
        self, seed, start, rms, with_rng, plan
    ):
        hands, rngs = _twin_hands(seed, start, rms, with_rng)
        for hand, _poses in hands:
            for at_s, target, duration in sorted(plan):
                hand._sim.run_until(max(at_s, hand._sim.now))
                hand.move_to(target, duration)
            hand._sim.run_until(2.5)
        (fused, fused_poses), (ref, ref_poses) = hands
        assert fused_poses == ref_poses
        assert fused.total_path_cm == ref.total_path_cm
        assert fused.fatigue_units == ref.fatigue_units
        assert fused._tremor_phase == ref._tremor_phase
        assert fused._tremor_state == ref._tremor_state
        assert fused.position() == ref.position()
        if with_rng:
            assert rngs[0].random() == rngs[1].random()

    def test_rng_none_is_tremor_free(self):
        hands, _ = _twin_hands(0, 12.0, 0.08, with_rng=False)
        for hand, _poses in hands:
            hand._sim.run_until(0.2)
        assert hands[0][1] == hands[1][1] == [12.0] * len(hands[0][1])

    def test_mid_move_and_after_the_move(self):
        hands, _ = _twin_hands(7, 10.0, 0.08, with_rng=True)
        for hand, _poses in hands:
            hand.move_to(25.0, 0.4)
            hand._sim.run_until(0.2)
            assert hand.is_moving
            hand._sim.run_until(1.0)
            assert not hand.is_moving
        assert hands[0][1] == hands[1][1]

    def test_pose_floor(self):
        """Positions below 0.5 cm are written as the 0.5 cm floor."""
        hands, _ = _twin_hands(3, 0.6, 0.3, with_rng=True)
        for hand, _poses in hands:
            hand.move_to(-2.0, 0.1)
            hand._sim.run_until(0.5)
        fused_poses = hands[0][1]
        assert fused_poses == hands[1][1]
        assert 0.5 in fused_poses and min(fused_poses) == 0.5


class TestHandRejectsNonFinite:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_cm": math.nan},
            {"start_cm": math.inf},
            {"tremor_rms_cm": math.nan},
            {"tremor_rms_cm": -0.01},
            {"tremor_rms_cm": math.inf},
            {"update_hz": math.nan},
            {"update_hz": 0.0},
            {"update_hz": -120.0},
            {"update_hz": math.inf},
        ],
    )
    def test_constructor_rejects(self, kwargs):
        sim = Simulator(seed=0)
        poses: list[float] = []
        with pytest.raises(ValueError):
            Hand(sim, poses.append, rng=np.random.default_rng(0), **kwargs)
        assert poses == []
        assert not sim._queue

    def test_zero_tremor_is_accepted(self):
        sim = Simulator(seed=0)
        poses: list[float] = []
        Hand(sim, poses.append, start_cm=9.0, tremor_rms_cm=0.0,
             rng=np.random.default_rng(0))
        sim.run_until(0.1)
        assert set(poses) == {9.0}


class TestHoldAtRejectsNonFinite:
    @pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf])
    def test_hold_at(self, distance):
        device = DistScroll(build_menu(["a", "b", "c"]), seed=0)
        before = device.distance_cm
        with pytest.raises(ValueError, match="finite"):
            device.hold_at(distance)
        assert device.distance_cm == before

    def test_finite_hold_still_moves_the_device(self):
        device = DistScroll(build_menu(["a", "b", "c"]), seed=0)
        device.hold_at(12.5)
        assert device.distance_cm == 12.5
