"""Integration tests: every DESIGN.md experiment reproduces its shape.

These run the experiment entry points, mostly at reduced sizes, and
assert on the *qualitative* claims of the paper (who wins, what is
flat, what explodes) rather than absolute numbers.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.experiments.ablation_mapping import run_ablation_mapping
from repro.experiments.direction import run_direction
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.foldback import run_foldback
from repro.experiments.gloves_bench import run_gloves_bench, run_stocktaking_by_glove
from repro.experiments.island_mapping import run_island_mapping
from repro.experiments.long_menus import max_flat_entries, run_long_menus
from repro.experiments.range_sweep import run_range_sweep
from repro.experiments.sensor_env import run_sensor_env
from repro.experiments.speed_comparison import run_speed_comparison
from repro.experiments.user_study import run_user_study


class TestFig4:
    def test_rows_cover_sensor_range(self):
        result, calibration = run_fig4(seed=0, readings_per_point=8)
        distances = result.column("distance_cm")
        assert distances[0] == pytest.approx(4.0)
        assert distances[-1] >= 29.0

    def test_monotone_decline(self):
        result, _ = run_fig4(seed=0, readings_per_point=8)
        voltages = result.column("measured_V")
        assert all(b < a for a, b in zip(voltages, voltages[1:]))

    def test_fit_passes_near_all_samples(self):
        _, calibration = run_fig4(seed=0, readings_per_point=8)
        assert calibration.hyperbola.r2 > 0.999

    def test_fit_at_sixteen_readings_per_point(self):
        _, calibration = run_fig4(seed=0, readings_per_point=16)
        assert calibration.hyperbola.r2 > 0.999

    def test_datasheet_anchors(self):
        result, _ = run_fig4(seed=0, readings_per_point=8)
        voltages = result.column("measured_V")
        assert 2.3 < voltages[0] < 3.2  # ~2.75 V at 4 cm
        assert 0.2 < voltages[-1] < 0.6  # ~0.4 V at 30 cm


class TestFig5:
    def test_log_fit_nearly_perfect(self):
        result = run_fig5(seed=0, readings_per_point=8)
        note = result.notes[0]
        r2 = float(note.split("R^2 = ")[1].rstrip(")"))
        assert r2 > 0.99

    def test_log_fit_at_sixteen_readings_per_point(self):
        result = run_fig5(seed=0, readings_per_point=16)
        r2 = float(result.notes[0].split("R^2 = ")[1].rstrip(")"))
        assert r2 > 0.99

    def test_log_rows_linear(self):
        result = run_fig5(seed=0, readings_per_point=8)
        x = np.array(result.column("log10_distance"))
        y = np.array(result.column("log10_measured_V"))
        corr = np.corrcoef(x, y)[0, 1]
        assert corr < -0.995  # a near-perfect straight declining line


class TestSensorEnv:
    def test_clothing_invariance_and_specular_failure(self):
        result = run_sensor_env(
            seed=0,
            readings_per_point=4,
            surfaces=["white_shirt", "black_jacket", "mirror_patchwork"],
            ambients=["indoor"],
        )
        devs = dict(
            zip(result.column("surface"), result.column("max_dev_vs_ref_pct"))
        )
        assert devs["black_jacket"] < 12.0
        assert devs["mirror_patchwork"] > 40.0

    def test_benign_surfaces_within_15_percent(self):
        result = run_sensor_env(seed=0, readings_per_point=8)
        surfaces = result.column("surface")
        devs = result.column("max_dev_vs_ref_pct")
        benign = [
            d
            for s, d in zip(surfaces, devs)
            if "mirror" not in s and "vest" not in s
        ]
        assert max(benign) < 15.0

    def test_sunlight_only_adds_noise(self):
        result = run_sensor_env(
            seed=0,
            readings_per_point=4,
            surfaces=["white_shirt"],
            ambients=["dark", "sunlight"],
        )
        residuals = dict(
            zip(result.column("light"), result.column("rms_residual_mV"))
        )
        assert residuals["sunlight"] < 10 * max(residuals["dark"], 1.0)


class TestFoldback:
    def test_all_claims(self):
        result = run_foldback(seed=2)
        aliases = result.column("alias_cm")
        assert all(4.0 < a < 30.0 for a in aliases if not math.isnan(a))
        joined = " ".join(result.notes)
        assert "preserved=True with the fold-back latch" in joined
        assert "preserved=False without" in joined
        rate = float(joined.split("sustains ")[1].split(" entries/s")[0])
        assert 6.0 < rate < 14.0  # near the configured 12/s


class TestIslandMapping:
    def test_spacing_uniform_and_stable(self):
        result = run_island_mapping(seed=1, hold_time_s=2.0)
        assert max(result.column("spacing_cv")) < 1e-6
        assert max(result.column("flicker_center_hz")) == 0.0
        assert max(result.column("flicker_gap_hz")) <= 0.5
        assert all(0.4 < c < 1.0 for c in result.column("coverage"))

    def test_gap_flicker_over_a_four_second_hold(self):
        result = run_island_mapping(seed=1, hold_time_s=4.0)
        assert max(result.column("spacing_cv")) < 1e-6
        assert max(result.column("flicker_gap_hz")) <= 0.5


class TestUserStudy:
    def test_prompt_discovery_and_low_errors(self):
        result = run_user_study(
            seed=0, n_users=4, n_blocks=2, trials_per_block=4
        )
        assert "4/4 users" in result.notes[0]
        late_error_rates = result.column("error_rate")[1:]
        assert all(rate < 0.25 for rate in late_error_rates)

    def test_nearly_errorless_once_learned(self):
        """§6: "nearly errorless" after the first block, 12 users."""
        result = run_user_study(
            seed=0, n_users=12, n_blocks=4, trials_per_block=8
        )
        assert all(rate < 0.2 for rate in result.column("error_rate")[1:])

    def test_trials_get_no_slower_with_practice(self):
        result = run_user_study(
            seed=0, n_users=4, n_blocks=3, trials_per_block=4
        )
        times = result.column("mean_trial_s")
        assert times[-1] < times[0] * 1.3


class TestSpeedComparison:
    def test_buttons_linear_distscroll_flat(self):
        comparison = run_speed_comparison(
            seed=1,
            menu_lengths=(6, 18),
            repetitions=2,
            techniques=("distscroll", "buttons"),
        )
        rows = {
            (r[0], r[1]): r[2] for r in comparison.rows
        }  # (technique, len) -> mean
        button_growth = rows[("buttons", 18)] / rows[("buttons", 6)]
        dist_growth = rows[("distscroll", 18)] / rows[("distscroll", 6)]
        assert dist_growth < button_growth

    def test_six_techniques_at_two_menu_lengths(self):
        comparison = run_speed_comparison(
            seed=1, menu_lengths=(8, 20), repetitions=4
        )
        assert len(comparison.rows) == 12  # 6 techniques x 2 lengths

    def test_fitts_holds_for_distscroll(self):
        comparison = run_speed_comparison(
            seed=3,
            menu_lengths=(8, 24),
            repetitions=4,
            techniques=("distscroll",),
        )
        fits = [
            note for note in comparison.notes
            if note.startswith("fitts distscroll:")
        ]
        assert fits, "no regression produced"
        match = re.search(r"b=(\S+) s/bit, r2=(\S+),", fits[0])
        b, r2 = float(match.group(1)), float(match.group(2))
        assert b > 0.0  # positive slope: harder targets take longer
        # Total task time includes reaction/verify/press noise, so the
        # ID-only regression explains a modest share — but reliably > 0.
        assert r2 > 0.1


class TestRangeSweep:
    def test_narrow_ranges_cost_accuracy(self):
        result = run_range_sweep(
            seed=1,
            ranges=((5.0, 10.0), (5.0, 28.0)),
            n_entries=10,
            n_trials=5,
            n_users=2,
        )
        subs = dict(zip(result.column("range_cm"), result.column("submovements")))
        assert subs["5-10"] >= subs["5-28"]

    def test_excursion_grows_with_span(self):
        result = run_range_sweep(
            seed=1,
            ranges=((5.0, 12.0), (5.0, 28.0)),
            n_entries=8,
            n_trials=5,
            n_users=2,
        )
        excursions = result.column("mean_excursion_cm")
        assert excursions[1] > excursions[0]

    def test_default_ranges_change_the_excursion(self):
        result = run_range_sweep(
            seed=1, n_entries=10, n_trials=8, n_users=3
        )
        excursions = result.column("mean_excursion_cm")
        assert excursions[-1] != excursions[0]


class TestLongMenus:
    def test_flat_limit_exists(self):
        limit = max_flat_entries()
        assert 20 < limit < 120

    def test_four_lengths_by_three_modes(self):
        result = run_long_menus(
            seed=1, menu_lengths=(10, 20, 40, 60), n_trials=6, n_users=2
        )
        assert len(result.rows) == 12  # 4 lengths x 3 modes

    def test_chunked_beats_flat_for_long_menus(self):
        result = run_long_menus(
            seed=1, menu_lengths=(40,), n_trials=4, n_users=2
        )
        by_mode = {r[1]: r for r in result.rows}
        flat_subs = by_mode["flat"][4]
        chunked_subs = by_mode["chunked"][4]
        # Flat 40-entry islands are noise-limited: more corrections.
        assert math.isnan(flat_subs) or flat_subs >= chunked_subs * 0.8


class TestDirection:
    def test_wrong_way_reaches_and_learnability(self):
        result = run_direction(seed=2, n_users=6, n_trials=6, n_entries=8)
        assert len(result.rows) == 2
        for row in result.rows:
            first3, last3 = row[2], row[3]
            assert last3 < first3 * 1.5  # polarity is learnable
        total_wrong = sum(r[4] for r in result.rows)
        assert total_wrong >= 1  # somebody reached the wrong way

    def test_one_row_per_polarity_at_ten_users(self):
        result = run_direction(seed=2, n_users=10, n_trials=10, n_entries=10)
        assert len(result.rows) == 2


class TestAblationMapping:
    def test_paper_design_wins(self):
        result = run_ablation_mapping(
            seed=1, n_entries=12, n_trials=5, n_users=2
        )
        by_variant = {r[0]: r for r in result.rows}
        paper = by_variant["paper (equal-dist + gaps)"]
        naive = by_variant["naive (equal-code + gaps)"]
        nogaps = by_variant["no gaps (full coverage)"]
        # Spacing: the paper's placement is uniform, the naive one is not.
        assert paper[1] < 0.01
        assert naive[1] > 0.3
        # Boundary flicker: gaps suppress it.
        assert paper[2] <= nogaps[2] + 0.5

    def test_paper_vs_naive_spacing_at_three_users(self):
        result = run_ablation_mapping(
            seed=1, n_entries=12, n_trials=6, n_users=3
        )
        by_variant = {r[0]: r for r in result.rows}
        assert by_variant["paper (equal-dist + gaps)"][1] < 0.01
        assert by_variant["naive (equal-code + gaps)"][1] > 0.3


class TestGloves:
    def test_distscroll_degrades_least(self):
        result = run_gloves_bench(
            seed=1,
            gloves=("none", "arctic"),
            techniques=("distscroll", "touch"),
            n_entries=10,
            n_trials=5,
        )
        slowdown = {
            (r[0], r[1]): r[4] for r in result.rows
        }
        assert slowdown[("arctic", "distscroll")] < slowdown[("arctic", "touch")]

    def test_stocktaking_works_in_all_gloves(self):
        result = run_stocktaking_by_glove(
            seed=2, gloves=("none", "winter"), n_items=2
        )
        rates = result.column("items_per_minute")
        assert all(rate > 2.0 for rate in rates)

    def test_arctic_slowdown_over_the_full_matrix(self):
        result = run_gloves_bench(seed=1, n_entries=12, n_trials=8)
        slowdown = {(r[0], r[1]): r[4] for r in result.rows}
        assert slowdown[("arctic", "distscroll")] < slowdown[("arctic", "touch")]

    def test_stocktaking_in_every_glove(self):
        result = run_stocktaking_by_glove(seed=2, n_items=4)
        assert all(rate > 2.0 for rate in result.column("items_per_minute"))
