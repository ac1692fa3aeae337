"""Tests for the hand motor model, Fitts utilities, gloves and tasks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interaction.fitts import (
    fit_fitts,
    index_of_difficulty,
    movement_time,
    throughput,
)
from repro.interaction.gloves import GLOVES, Glove
from repro.interaction.hand import Hand, minimum_jerk
from repro.interaction.tasks import fitts_ladder, hierarchical_tasks, random_targets
from repro.core.menu import build_menu
from repro.sim.kernel import Simulator


class TestMinimumJerk:
    def test_endpoints(self):
        assert minimum_jerk(0.0) == 0.0
        assert minimum_jerk(1.0) == 1.0

    def test_midpoint(self):
        assert minimum_jerk(0.5) == pytest.approx(0.5)

    def test_clamped_outside_unit(self):
        assert minimum_jerk(-1.0) == 0.0
        assert minimum_jerk(2.0) == 1.0

    def test_monotone(self):
        taus = np.linspace(0, 1, 100)
        values = [minimum_jerk(t) for t in taus]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_smooth_start_and_stop(self):
        """Velocity near zero at both ends (bell-shaped profile)."""
        eps = 1e-4
        v_start = (minimum_jerk(eps) - minimum_jerk(0.0)) / eps
        v_mid = (minimum_jerk(0.5 + eps) - minimum_jerk(0.5)) / eps
        v_end = (minimum_jerk(1.0) - minimum_jerk(1.0 - eps)) / eps
        assert v_start < 0.01
        assert v_end < 0.01
        assert v_mid > 1.0


class TestHand:
    def test_writes_pose(self):
        sim = Simulator(seed=0)
        positions = []
        hand = Hand(sim, positions.append, start_cm=20.0, rng=None)
        sim.run_until(0.1)
        assert positions
        assert positions[-1] == pytest.approx(20.0)

    def test_reach_arrives_at_target(self):
        sim = Simulator(seed=0)
        pose = {}
        hand = Hand(sim, lambda d: pose.update(d=d), start_cm=20.0, rng=None)
        hand.move_to(8.0, 0.5)
        sim.run_until(1.0)
        assert pose["d"] == pytest.approx(8.0, abs=0.01)
        assert not hand.is_moving

    def test_midflight_position_between_endpoints(self):
        sim = Simulator(seed=0)
        hand = Hand(sim, lambda d: None, start_cm=20.0, rng=None)
        hand.move_to(10.0, 1.0)
        sim.run_until(0.5)
        pos = hand.position()
        assert 10.0 < pos < 20.0

    def test_preemption_starts_from_current(self):
        sim = Simulator(seed=0)
        hand = Hand(sim, lambda d: None, start_cm=20.0, rng=None)
        hand.move_to(10.0, 1.0)
        sim.run_until(0.5)
        mid = hand.position(include_tremor=False)
        hand.move_to(25.0, 0.5)
        sim.run_until(0.51)
        after = hand.position(include_tremor=False)
        assert abs(after - mid) < 1.0  # continuous, no teleport

    def test_tremor_present_with_rng(self):
        sim = Simulator(seed=0)
        positions = []
        Hand(sim, positions.append, start_cm=15.0, rng=sim.spawn_rng(),
             tremor_rms_cm=0.1)
        sim.run_until(2.0)
        assert np.std(positions) > 0.01
        assert np.std(positions) < 0.5

    def test_tremor_absent_without_rng(self):
        sim = Simulator(seed=0)
        positions = []
        Hand(sim, positions.append, start_cm=15.0, rng=None)
        sim.run_until(1.0)
        assert np.std(positions) == 0.0

    def test_path_accumulates(self):
        sim = Simulator(seed=0)
        hand = Hand(sim, lambda d: None, start_cm=20.0, rng=None)
        hand.move_to(10.0, 0.5)
        sim.run_until(0.6)
        assert hand.total_path_cm == pytest.approx(10.0, rel=0.05)

    def test_invalid_duration(self):
        sim = Simulator(seed=0)
        hand = Hand(sim, lambda d: None, rng=None)
        with pytest.raises(ValueError):
            hand.move_to(10.0, 0.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_nonfinite_target_rejected(self, target):
        sim = Simulator(seed=0)
        positions = []
        hand = Hand(sim, positions.append, start_cm=15.0, rng=None)
        with pytest.raises(ValueError, match="target must be finite"):
            hand.move_to(target, 0.4)
        # The rejected command left the plant untouched.
        sim.run_until(0.5)
        assert hand.target_cm == 15.0
        assert all(p == 15.0 for p in positions)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_nonfinite_duration_rejected(self, duration):
        sim = Simulator(seed=0)
        hand = Hand(sim, lambda d: None, start_cm=15.0, rng=None)
        with pytest.raises(ValueError, match="duration must be finite"):
            hand.move_to(10.0, duration)
        assert hand.target_cm == 15.0
        assert not hand.is_moving

    def test_never_writes_nonpositive_distance(self):
        sim = Simulator(seed=0)
        positions = []
        hand = Hand(sim, positions.append, start_cm=2.0, rng=sim.spawn_rng())
        hand.move_to(0.0, 0.3)
        sim.run_until(1.0)
        assert min(positions) >= 0.5


class TestFitts:
    def test_id_formula(self):
        assert index_of_difficulty(7.0, 1.0) == pytest.approx(3.0)
        assert index_of_difficulty(0.0, 1.0) == 0.0

    def test_id_validation(self):
        with pytest.raises(ValueError):
            index_of_difficulty(1.0, 0.0)
        with pytest.raises(ValueError):
            index_of_difficulty(-1.0, 1.0)

    def test_movement_time(self):
        assert movement_time(0.1, 0.2, 7.0, 1.0) == pytest.approx(0.7)

    def test_fit_recovers_known_line(self):
        ids = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        times = 0.15 + 0.12 * ids
        fit = fit_fitts(ids, times)
        assert fit.a == pytest.approx(0.15)
        assert fit.b == pytest.approx(0.12)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.bandwidth_bits_per_s == pytest.approx(1 / 0.12)

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_fitts(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_fitts(np.ones(5), np.ones(5))

    def test_throughput(self):
        ids = np.array([2.0, 4.0])
        times = np.array([1.0, 2.0])
        assert throughput(ids, times) == pytest.approx(2.0)

    @given(
        a=st.floats(min_value=0.0, max_value=0.5),
        b=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_fit_inverts_generation(self, a, b):
        ids = np.linspace(0.5, 6.0, 12)
        times = a + b * ids
        fit = fit_fitts(ids, times)
        assert fit.a == pytest.approx(a, abs=1e-9)
        assert fit.b == pytest.approx(b, abs=1e-9)


class TestGloves:
    def test_presets_ordered_by_thickness(self):
        order = ["none", "latex", "chemical", "winter", "arctic"]
        thicknesses = [GLOVES[k].thickness_mm for k in order]
        assert thicknesses == sorted(thicknesses)

    def test_touch_error_grows_with_thickness(self):
        assert (
            GLOVES["arctic"].touch_error_factor
            > GLOVES["winter"].touch_error_factor
            > GLOVES["latex"].touch_error_factor
        )

    def test_large_button_forgives_mittens(self):
        arctic = GLOVES["arctic"]
        small = arctic.effective_miss_probability(40.0)
        large = arctic.effective_miss_probability(250.0)
        assert large < small / 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Glove("bad", thickness_mm=-1.0)
        with pytest.raises(ValueError):
            Glove("bad", thickness_mm=1.0, button_miss_probability=1.5)
        with pytest.raises(ValueError):
            Glove("bad", thickness_mm=1.0, tremor_factor=0.0)


class TestTasks:
    def test_random_targets_in_range(self, rng):
        targets = random_targets(10, 50, rng, min_separation=2)
        assert all(0 <= t < 10 for t in targets)
        assert all(
            abs(b - a) >= 2 for a, b in zip(targets, targets[1:])
        )

    def test_unsatisfiable_separation_rejected(self, rng):
        with pytest.raises(ValueError):
            random_targets(3, 5, rng, min_separation=3)

    def test_fitts_ladder_pairs_valid(self):
        pairs = fitts_ladder(10, repetitions=2)
        for start, target in pairs:
            assert 0 <= start < 10
            assert 0 <= target < 10
            assert start != target

    def test_fitts_ladder_alternates_direction(self):
        pairs = fitts_ladder(10, repetitions=2, distances=[4])
        assert pairs[0] == (pairs[1][1], pairs[1][0])

    def test_fitts_ladder_bad_distance(self):
        with pytest.raises(ValueError):
            fitts_ladder(5, distances=[7])

    def test_hierarchical_tasks_are_valid_paths(self, rng):
        menu = build_menu({"A": ["a1", "a2"], "B": {"C": ["c1"]}})
        tasks = list(hierarchical_tasks(menu, 20, rng))
        assert len(tasks) == 20
        valid = {("A", "a1"), ("A", "a2"), ("B", "C", "c1")}
        assert set(tasks) <= valid

    def test_hierarchical_tasks_leafless_menu(self, rng):
        menu = build_menu({})
        with pytest.raises(ValueError):
            list(hierarchical_tasks(menu, 1, rng))
