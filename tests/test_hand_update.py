"""The on-demand ``Hand`` against a per-update eager twin.

``Hand`` evaluates its 120 Hz updates on demand: two kernel events per
``run_until`` window, and a catch-up loop run by whoever reads the pose.
The reference below is the update as it ran before, one kernel event per
grid point on a :class:`~repro.sim.kernel.PeriodicTask`, computed as
three calls (``_advance_tremor()``, ``position()``, ``minimum_jerk``)
with two scalar draws per update.  Driven on twin generators, both hands
must write the same pose floats, show a reader the same pose at the same
instant, accumulate the same path and fatigue, and leave both generators
at the same point.  Also covers the constructor's and ``hold_at``'s
rejection of non-finite input.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.hardware.pose import DrivenPose
from repro.interaction.hand import Hand, minimum_jerk
from repro.sim.kernel import PeriodicTask, Simulator


class PoseLog(DrivenPose):
    """A pose sink that keeps every written pose, read like a board."""

    def __init__(self) -> None:
        self.distance_cm = math.nan
        self.poses: list[float] = []

    def set_distance(self, distance_cm: float) -> None:
        self.distance_cm = distance_cm
        self.poses.append(distance_cm)


class EagerHand:
    """The per-update reference: one kernel event per grid point.

    The hand as it was before updates became on-demand, with the unfused
    update and one scalar draw per normal.
    """

    def __init__(
        self, sim, write_pose, start_cm=20.0, tremor_rms_cm=0.08,
        tremor_hz=9.0, update_hz=120.0, rng=None,
    ) -> None:
        self._sim = sim
        self._write_pose = write_pose
        self._rng = rng
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
        self.fatigue_units = 0.0
        self._relaxed_cm = 14.0
        self._last_position = float(start_cm)
        self._task = PeriodicTask(
            sim, self._update_period, self._update, phase=0.0
        )
        write_pose(self._rest_cm)

    @property
    def is_moving(self) -> bool:
        return self._sim.now < self._move_start + self._move_duration

    def move_to(self, target_cm: float, duration_s: float) -> None:
        self._move_from = self.position(include_tremor=False)
        self._move_to = float(target_cm)
        self._move_start = self._sim.now
        self._move_duration = float(duration_s)
        self._rest_cm = float(target_cm)

    def position(self, include_tremor: bool = True) -> float:
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
        self._task.stop()

    def _advance_tremor(self) -> None:
        if self._rng is None or self.tremor_rms_cm <= 0.0:
            self._tremor_state = 0.0
            return
        gauss = self._rng.standard_normal
        dt = self._update_period
        self._tremor_phase += (
            2.0 * math.pi * self.tremor_hz * dt
            * (1.0 + (0.0 + 0.1 * gauss()))
        )
        periodic = math.sin(self._tremor_phase)
        broadband = 0.0 + 0.6 * gauss()
        self._tremor_state = self.tremor_rms_cm * (
            0.8 * periodic + 0.45 * broadband
        )

    def _update(self) -> None:
        self._advance_tremor()
        position = self.position()
        travel = abs(position - self._last_position)
        self.total_path_cm += travel
        extension = max(position - self._relaxed_cm, 0.0) / self._relaxed_cm
        holding_cost = (0.25 + extension) * self._update_period
        self.fatigue_units += holding_cost + 0.06 * travel
        self._last_position = position
        self._write_pose(max(position, 0.5))


def _twin_hands(seed, start_cm, rms, with_rng, update_hz=120.0, before=None):
    """``([(on-demand hand, log), (eager twin, log)], [rng, rng])``.

    ``before(sim, log)``, when given, runs on each simulator before its
    hand is built, so what it schedules is armed ahead of the hand.
    """
    hands, rngs = [], []
    for cls in (Hand, EagerHand):
        sim = Simulator(seed=0)
        rng = np.random.default_rng(seed) if with_rng else None
        log = PoseLog()
        if before is not None:
            before(sim, log)
        hand = cls(
            sim, log.set_distance, start_cm=start_cm, tremor_rms_cm=rms,
            update_hz=update_hz, rng=rng,
        )
        hands.append((hand, log))
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


def _assert_twins_agree(hands, rngs) -> None:
    """Same poses, path, fatigue, tremor state and generator position."""
    (lazy, lazy_log), (eager, eager_log) = hands
    assert lazy_log.poses == eager_log.poses
    assert lazy.total_path_cm == eager.total_path_cm
    assert lazy.fatigue_units == eager.fatigue_units
    assert lazy._tremor_phase == eager._tremor_phase
    assert lazy._tremor_state == eager._tremor_state
    if rngs[0] is not None:
        assert rngs[0].random() == rngs[1].random()


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
        for hand, _log in hands:
            for at_s, target, duration in sorted(plan):
                hand._sim.run_until(max(at_s, hand._sim.now))
                hand.move_to(target, duration)
            hand._sim.run_until(2.5)
        (lazy, _), (eager, _) = hands
        assert lazy.position() == eager.position()
        _assert_twins_agree(hands, rngs)

    def test_rng_none_is_tremor_free(self):
        hands, _ = _twin_hands(0, 12.0, 0.08, with_rng=False)
        for hand, _log in hands:
            hand._sim.run_until(0.2)
        lazy_poses = hands[0][1].poses
        assert lazy_poses == hands[1][1].poses == [12.0] * len(lazy_poses)

    def test_mid_move_and_after_the_move(self):
        hands, _ = _twin_hands(7, 10.0, 0.08, with_rng=True)
        for hand, _log in hands:
            hand.move_to(25.0, 0.4)
            hand._sim.run_until(0.2)
            assert hand.is_moving
            hand._sim.run_until(1.0)
            assert not hand.is_moving
        assert hands[0][1].poses == hands[1][1].poses

    def test_pose_floor(self):
        """Positions below 0.5 cm are written as the 0.5 cm floor."""
        hands, _ = _twin_hands(3, 0.6, 0.3, with_rng=True)
        for hand, _log in hands:
            hand.move_to(-2.0, 0.1)
            hand._sim.run_until(0.5)
        lazy_poses = hands[0][1].poses
        assert lazy_poses == hands[1][1].poses
        assert 0.5 in lazy_poses and min(lazy_poses) == 0.5


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
# the per-window tremor block and the on-demand updates at a window's edges
# ---------------------------------------------------------------------------
#: Steps of a driving plan.  ``until``/``while``/``step``/``run`` advance
#: the simulator through each run method; ``move`` starts a reach and
#: ``draw`` is user code drawing from the shared generator between
#: windows; ``stop_at``/``rms_at`` schedule a stop or a tremor change
#: inside a later window; ``nested`` schedules a callback that runs a
#: ``run_until`` or ``run_while`` from inside a window; ``read`` schedules
#: a pose reader at an arbitrary later time.
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
    st.tuples(st.just("read"), st.floats(0.0, 0.4)),
)


def _has_live_events(sim: Simulator) -> bool:
    return any(not entry[3].cancelled for entry in sim._queue)


def _drive(hand, log: PoseLog, rng, reads: list, step) -> None:
    sim = hand._sim
    kind, *args = step
    if kind == "until":
        sim.run_until(sim.now + args[0])
    elif kind == "while":
        limit = len(log.poses) + args[1]
        sim.run_while(lambda: len(log.poses) < limit, sim.now + args[0])
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
    elif kind == "read":
        sim.schedule(
            args[0], lambda: reads.append((sim.now, log.distance_at(sim.now)))
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
    """The on-demand hand against the per-update reference, driven
    through every run method, stops and tremor changes inside windows,
    nested runs, pose readers and user draws between windows."""

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
        reads: list[list] = [[], []]
        for (hand, log), rng, seen in zip(hands, rngs, reads):
            for step in plan:
                _drive(hand, log, rng, seen, step)
            hand._sim.run_until(hand._sim.now + 0.3)
        assert reads[0] == reads[1]
        _assert_twins_agree(hands, rngs)

    def test_stop_mid_window_gives_back_the_unused_draws(self):
        hands, rngs = _twin_hands(11, 15.0, 0.08, with_rng=True)
        for hand, _log in hands:
            hand._sim.schedule(0.2, hand.stop)
            hand._sim.run_until(1.0)
        lazy = hands[0][0]
        assert not _has_live_events(lazy._sim)
        assert lazy._draws == []
        assert hands[0][1].poses == hands[1][1].poses
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

    def test_a_reader_on_every_grid_point_sees_the_update_before(self):
        """Forced ties: a 1/64 s reader armed before a 128 Hz hand reads
        exactly on a grid point every time, window ends included."""
        reads: list[list] = [[], []]
        armed = iter(reads)

        def reader(sim, log):
            seen = next(armed)
            PeriodicTask(sim, 1 / 64, lambda: seen.append(log.distance_at(sim.now)))

        hands, rngs = _twin_hands(
            21, 12.0, 0.3, with_rng=True, update_hz=128.0, before=reader
        )
        for hand, _log in hands:
            sim = hand._sim
            for end, target in ((0.25, 20.0), (0.3125, 8.0), (0.75, 15.0)):
                sim.run_until(end)
                hand.move_to(target, 0.2)
            sim.run_until(1.0)
        assert len(reads[0]) == 64
        assert reads[0] == reads[1]
        _assert_twins_agree(hands, rngs)

    def test_a_writer_no_reader_can_sync_gets_every_pose_on_time(self):
        """A plain callable pose writer cannot catch the hand up, so the
        hand keeps one event per update and a reader sees the pose the
        eager twin writes at the same instant."""
        reads: list[list] = [[], []]
        for cls, seen in zip((Hand, EagerHand), reads):
            sim = Simulator(seed=0)
            pose = [math.nan]
            PeriodicTask(sim, 0.02, lambda: seen.append(pose[0]))
            hand = cls(
                sim, lambda d: pose.__setitem__(0, d), start_cm=12.0,
                rng=np.random.default_rng(4),
            )
            hand.move_to(20.0, 0.3)
            sim.run_until(0.5)
        assert len(reads[0]) == 24
        assert reads[0] == reads[1]

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
