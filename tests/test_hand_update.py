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


# ---------------------------------------------------------------------------
# the per-window tremor block at the edges of a window
# ---------------------------------------------------------------------------
#: Steps of a driving plan.  ``until``/``while``/``step``/``run`` advance
#: the simulator through each run method; ``move`` starts a reach and
#: ``draw`` is user code drawing from the shared generator between
#: windows; ``stop_at``/``rms_at`` schedule a stop or a tremor change
#: inside a later window; ``nested`` schedules a callback that runs a
#: ``run_until`` or ``run_while`` from inside a window.
plan_steps = st.one_of(
    st.tuples(st.just("until"), st.floats(0.0, 0.4)),
    st.tuples(st.just("while"), st.floats(0.0, 0.4), st.integers(0, 60)),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("run"), st.integers(1, 40)),
    st.tuples(st.just("move"), st.floats(-3.0, 35.0), st.floats(0.05, 0.8)),
    st.tuples(st.just("draw"), st.integers(1, 3)),
    st.tuples(st.just("stop_at"), st.floats(0.0, 0.3)),
    st.tuples(
        st.just("rms_at"), st.floats(0.0, 0.3), st.sampled_from([0.0, 0.08])
    ),
    st.tuples(
        st.just("nested"),
        st.floats(0.0, 0.2),
        st.floats(0.0, 0.3),
        st.sampled_from(["until", "while"]),
    ),
)


def _has_live_events(sim: Simulator) -> bool:
    return any(not entry[3].cancelled for entry in sim._queue)


def _drive(hand: Hand, poses: list, rng, step) -> None:
    sim = hand._sim
    kind, *args = step
    if kind == "until":
        sim.run_until(sim.now + args[0])
    elif kind == "while":
        limit = len(poses) + args[1]
        sim.run_while(lambda: len(poses) < limit, sim.now + args[0])
    elif kind == "step":
        for _ in range(args[0]):
            sim.step()
    elif kind == "run":
        if _has_live_events(sim):
            sim.run(max_events=args[0])
    elif kind == "move":
        hand.move_to(*args)
    elif kind == "draw":
        if rng is not None:
            rng.random(args[0])
    elif kind == "stop_at":
        sim.schedule(args[0], hand.stop)
    elif kind == "rms_at":
        sim.schedule(
            args[0], lambda: setattr(hand, "tremor_rms_cm", args[1])
        )
    else:
        delay, span, inner = args

        def nested() -> None:
            if inner == "until":
                sim.run_until(sim.now + span)
            else:
                sim.run_while(lambda: True, sim.now + span)

        sim.schedule(delay, nested)


class TestTremorBlockMatchesPerUpdateDraws:
    """The block-drawing hand against the per-update reference, driven
    through every run method, stops and tremor changes inside windows,
    nested runs and user draws between windows."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        start=st.floats(0.0, 35.0),
        rms=st.sampled_from([0.0, 0.08, 0.3]),
        with_rng=st.booleans(),
        plan=st.lists(plan_steps, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_poses_path_fatigue_and_stream_position(
        self, seed, start, rms, with_rng, plan
    ):
        hands, rngs = _twin_hands(seed, start, rms, with_rng)
        for (hand, poses), rng in zip(hands, rngs):
            for step in plan:
                _drive(hand, poses, rng, step)
            hand._sim.run_until(hand._sim.now + 0.3)
        (fused, fused_poses), (ref, ref_poses) = hands
        assert fused_poses == ref_poses
        assert fused.total_path_cm == ref.total_path_cm
        assert fused.fatigue_units == ref.fatigue_units
        assert fused._tremor_phase == ref._tremor_phase
        assert fused._tremor_state == ref._tremor_state
        if with_rng:
            assert rngs[0].random() == rngs[1].random()

    def test_stop_mid_window_gives_back_the_unused_draws(self):
        hands, rngs = _twin_hands(11, 15.0, 0.08, with_rng=True)
        for hand, _poses in hands:
            hand._sim.schedule(0.2, hand.stop)
            hand._sim.run_until(1.0)
        fused = hands[0][0]
        assert not fused._task.running
        assert fused._draws == []
        assert hands[0][1] == hands[1][1]
        assert rngs[0].random() == rngs[1].random()

    def test_an_update_exactly_on_the_horizon_belongs_to_the_window(self):
        # 1/128 s is exact in binary, so updates land on each window end.
        runs = []
        for windowed in (True, False):
            sim = Simulator(seed=0)
            rng = np.random.default_rng(5)
            poses: list[float] = []
            hand = Hand(sim, poses.append, update_hz=128.0, rng=rng)
            for end in (0.25, 0.5, 0.75):
                if windowed:
                    sim.run_until(end)
                    assert hand._next_draw == len(hand._draws)
                else:
                    sim.run_while(lambda: True, end)
                rng.random()
            runs.append((poses, rng.random()))
        assert len(runs[0][0]) == 1 + 96 + 1
        assert runs[0] == runs[1]

    def test_one_block_per_window_outside_which_updates_draw_alone(self):
        sim = Simulator(seed=0)
        hand = Hand(sim, lambda _pose: None, rng=np.random.default_rng(3))
        sim.run_until(0.1)
        # Updates at 0, 1/120, ... up to 0.1 s: 13 of them, two normals each.
        assert len(hand._draws) == 2 * 13
        assert hand._next_draw == len(hand._draws)
        sim.run_while(lambda: True, 0.2)
        sim.step()
        assert hand._next_draw == len(hand._draws)
        assert sim.horizon is None


class TestSimulatorHorizon:
    def test_only_run_until_opens_a_window(self):
        sim = Simulator(seed=0)
        seen = []
        task = PeriodicTask(sim, 0.1, lambda: seen.append(sim.horizon))
        sim.run_until(0.25)
        sim.run_while(lambda: True, 0.35)
        sim.step()
        sim.run(max_events=1)
        task.stop()
        assert seen == [0.25, 0.25, None, None, None]
        assert sim.horizon is None

    def test_nested_runs_restore_the_outer_horizon(self):
        sim = Simulator(seed=0)
        seen = []

        def nested() -> None:
            seen.append(sim.horizon)
            sim.run_until(sim.now + 0.1)
            seen.append(sim.horizon)
            sim.run_while(lambda: True, sim.now + 0.1)
            seen.append(sim.horizon)

        sim.schedule(0.1, nested)
        sim.schedule(0.15, lambda: seen.append(sim.horizon))
        sim.schedule(0.25, lambda: seen.append(sim.horizon))
        sim.run_until(1.0)
        assert seen == [1.0, 0.2, 1.0, None, 1.0]
        assert sim.horizon is None

    def test_a_raising_callback_restores_the_horizon(self):
        sim = Simulator(seed=0)

        def boom() -> None:
            raise RuntimeError("boom")

        sim.schedule(0.1, boom)
        with pytest.raises(RuntimeError):
            sim.run_until(1.0)
        assert sim.horizon is None
