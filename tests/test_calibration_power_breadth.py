"""Tests for the calibration flag, power bookkeeping and breadth study."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.menu import build_menu, flatten_paths
from repro.experiments.breadth import build_uniform_tree, run_breadth
from repro.experiments.calibration_ablation import run_calibration_ablation
from repro.experiments.power import run_power
from repro.interaction.user import SimulatedUser


class TestFactoryCalibration:
    def test_uncalibrated_device_still_works(self):
        config = DeviceConfig(chunk_size=0, factory_calibrated=False)
        device = DistScroll(
            build_menu([f"I{i}" for i in range(8)]), config=config, seed=7
        )
        user = SimulatedUser(device=device, rng=np.random.default_rng(7))
        user.practice_trials = 30
        device.run_for(0.5)
        for target in (1, 6, 3):
            assert user.select_entry(target).success

    def test_calibrated_mapping_matches_specimen(self):
        calibrated = DistScroll(
            build_menu(["A", "B", "C"]),
            config=DeviceConfig(factory_calibrated=True),
            seed=7,
        )
        generic = DistScroll(
            build_menu(["A", "B", "C"]),
            config=DeviceConfig(factory_calibrated=False),
            seed=7,
        )
        # Same specimen; only the mapping differs, so the island code
        # tables differ (specimen deviates from the datasheet part).
        own = [i.center_code for i in calibrated.firmware.island_map.islands]
        generic_codes = [
            i.center_code for i in generic.firmware.island_map.islands
        ]
        assert own != generic_codes

    def test_directional_correction_recovers_bias(self):
        """Even a badly biased mapping converges via display feedback."""
        config = DeviceConfig(chunk_size=0, factory_calibrated=False)
        device = DistScroll(
            build_menu([f"I{i}" for i in range(12)]), config=config, seed=11
        )
        user = SimulatedUser(device=device, rng=np.random.default_rng(11))
        user.practice_trials = 30
        device.run_for(0.5)
        result = user.select_entry(9)
        assert result.success

    def test_ablation_table_shape(self):
        result = run_calibration_ablation(
            seed=1, menu_sizes=(8,), n_specimens=2, n_trials=3
        )
        assert len(result.rows) == 2
        mappings = set(result.column("mapping"))
        assert mappings == {"calibrated", "datasheet"}

    def test_calibration_cuts_corrections_at_ten_entries(self):
        result = run_calibration_ablation(seed=2, n_specimens=4, n_trials=6)
        by_key = {(r[0], r[1]): r for r in result.rows}
        # Per-unit calibration reduces corrective submovements at 10 entries.
        assert by_key[(10, "calibrated")][3] <= by_key[(10, "datasheet")][3]
        # And users always recover via display feedback.
        assert all(r[4] >= 0.8 for r in result.rows)


class TestPower:
    def test_all_workloads_reported(self):
        result = run_power(seed=1, window_s=20.0)
        assert set(result.column("workload")) == {"idle", "browsing", "gaming"}

    def test_currents_physically_plausible(self):
        result = run_power(seed=1, window_s=20.0)
        for current in result.column("mean_current_ma"):
            assert 5.0 < current < 100.0

    def test_browsing_sends_rf(self):
        result = run_power(seed=1, window_s=20.0)
        packets = dict(
            zip(result.column("workload"), result.column("rf_packets_per_min"))
        )
        assert packets["browsing"] > 10.0

    def test_battery_lasts_a_study_day_over_a_minute(self):
        result = run_power(seed=1, window_s=60.0)
        life = dict(
            zip(result.column("workload"), result.column("battery_life_h"))
        )
        # A 9 V block lasts a full study day on every workload.
        assert all(hours > 8.0 for hours in life.values())
        packets = dict(
            zip(result.column("workload"), result.column("rf_packets_per_min"))
        )
        assert packets["browsing"] > packets["idle"]


class TestBreadth:
    def test_uniform_tree_shape(self):
        tree = build_uniform_tree(branching=4, depth=3)
        assert len(flatten_paths(tree)) == 64
        assert tree.max_depth() == 4  # root + 3 levels
        assert tree.max_fanout() == 4

    def test_flat_tree(self):
        tree = build_uniform_tree(branching=27, depth=1)
        assert len(tree.children) == 27
        assert all(c.is_leaf for c in tree.children)

    def test_depth_costs_time(self):
        result = run_breadth(
            seed=1,
            shapes=(("flat", 9, 1), ("deep", 3, 2)),
            n_tasks=3,
            n_users=1,
        )
        rows = {r[0]: r for r in result.rows}
        # Two levels need two full select cycles: slower than one.
        assert rows["deep"][2] > rows["flat"][2]

    def test_64_leaves_deep_against_square(self):
        result = run_breadth(seed=1, n_tasks=5, n_users=2)
        rows = {r[0]: r for r in result.rows}
        # Depth is the expensive axis: 3 levels cost more than 1 split.
        assert rows["64 deep (4^3)"][2] > rows["64 square (8^2)"][2] * 0.9
        assert all(r[4] >= 0.8 for r in result.rows)
