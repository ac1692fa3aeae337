"""Integration tests for the extension experiments (fusion, PDA, layout,
firmware ablation, SDAZ long menus, distance profile)."""

from __future__ import annotations

import math

import pytest

from repro.experiments.firmware_ablation import run_firmware_ablation
from repro.experiments.fusion import run_fusion
from repro.experiments.layouts import run_layouts
from repro.experiments.long_menus import run_long_menus
from repro.experiments.pda import run_pda
from repro.experiments.speed_comparison import run_distance_profile


class TestFusionExperiment:
    def test_fusion_accuracy_and_dive_story(self):
        result = run_fusion(seed=1)
        errors = [
            e for e in result.column("abs_error_cm") if not math.isnan(e)
        ]
        assert max(errors) < 1.0  # sub-centimeter everywhere measurable
        joined = " ".join(result.notes)
        assert "dual=LOST" not in joined
        assert "single=LOST" in joined

    def test_foldback_rows_flagged(self):
        result = run_fusion(seed=1)
        flags = dict(
            zip(result.column("true_cm"), result.column("in_foldback"))
        )
        assert flags[1.5] == "yes"
        assert flags[15.0] == "no"


class TestPDAExperiment:
    def test_addon_preserves_technique(self):
        result = run_pda(seed=1, n_trials=4, n_users=2)
        by_variant = {r[0]: r for r in result.rows}
        handheld, pda = by_variant["handheld"], by_variant["pda-addon"]
        assert 0.4 < pda[2] / handheld[2] < 2.5
        assert pda[3] >= 0.75  # success rate
        assert pda[4] > handheld[4]  # visibility advantage
        assert pda[5] < handheld[5]  # scan penalty advantage

    def test_addon_within_2x_at_three_users(self):
        result = run_pda(seed=1, n_trials=8, n_users=3)
        by_variant = {r[0]: r for r in result.rows}
        handheld = by_variant["handheld"][2]
        pda = by_variant["pda-addon"][2]
        assert 0.5 < pda / handheld < 2.0
        assert by_variant["pda-addon"][4] > by_variant["handheld"][4]


class TestLayoutExperiment:
    def test_table_covers_grid(self):
        result = run_layouts(seed=1, n_users=3, n_trials=3)
        assert len(result.rows) == 6  # 3 layouts x 2 gloves

    def test_large_button_cuts_mitten_fumbles(self):
        result = run_layouts(seed=1, n_users=8, n_trials=6)
        rows = {(r[0], r[1]): r for r in result.rows}
        assert (
            rows[("single-large-button", "arctic")][3]
            < rows[("prototype-3-button", "arctic")][3]
        )

    def test_prototype_penalizes_lefties_bare_handed(self):
        result = run_layouts(
            seed=3, n_users=6, n_trials=4, gloves=("none",)
        )
        by_layout = {r[0]: r for r in result.rows}
        assert by_layout["prototype-3-button"][4] > -0.1  # penalty exists-ish
        # The large button has (near) no penalty and no misses bare-handed.
        assert by_layout["single-large-button"][3] == 0.0


class TestFirmwareAblation:
    def test_tradeoff_shape(self):
        result = run_firmware_ablation(seed=1, hold_time_s=3.0)
        flicker = result.column("boundary_flicker_hz")
        latency = result.column("step_latency_ms")
        assert flicker[-1] <= flicker[0]
        assert latency[-1] > latency[0]
        assert all(not math.isnan(v) for v in latency)

    def test_tradeoff_over_a_five_second_hold(self):
        result = run_firmware_ablation(seed=1, hold_time_s=5.0)
        flicker = result.column("boundary_flicker_hz")
        latency = result.column("step_latency_ms")
        # Heavier filtering monotonically trades flicker for latency.
        assert flicker[-1] < flicker[0]
        assert latency[-1] > latency[0]
        # Default (median 3, confirm 2) keeps latency well under perception.
        defaults = [r for r in result.rows if r[0] == 3 and r[1] == 2][0]
        assert defaults[3] < 250.0


class TestLongMenusWithSDAZ:
    def test_three_modes_reported(self):
        result = run_long_menus(
            seed=1, menu_lengths=(20,), n_trials=3, n_users=1
        )
        modes = set(result.column("mode"))
        assert modes == {"flat", "chunked", "sdaz"}

    def test_sdaz_no_wrong_activations_needed(self):
        result = run_long_menus(
            seed=1, menu_lengths=(40,), n_trials=3, n_users=1
        )
        rows = {r[1]: r for r in result.rows}
        assert rows["sdaz"][2] > 0  # real times
        assert rows["sdaz"][3] <= rows["flat"][3] + 0.5


class TestDistanceProfile:
    def test_crossover_shape(self):
        result = run_distance_profile(seed=1, repetitions=4)
        rows = {(r[0], r[1]): r[2] for r in result.rows}
        assert rows[("buttons", 1)] < rows[("distscroll", 1)]
        assert rows[("buttons", 23)] > rows[("distscroll", 23)]

    def test_linear_vs_position_control_at_six_repetitions(self):
        result = run_distance_profile(seed=1, repetitions=6)
        rows = {(r[0], r[1]): r[2] for r in result.rows}
        # Buttons: near-linear growth — far targets cost much more than near.
        assert rows[("buttons", 23)] > 2.5 * rows[("buttons", 1)]
        # DistScroll: position control — far targets cost only modestly more.
        assert rows[("distscroll", 23)] < 2.5 * rows[("distscroll", 1)]
        # Crossover: buttons win adjacent-entry moves, lose far jumps.
        assert rows[("buttons", 1)] < rows[("distscroll", 1)]
        assert rows[("buttons", 23)] > rows[("distscroll", 23)]
