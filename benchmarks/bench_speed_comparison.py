"""EXT-SPEED — §7 Q1: DistScroll vs every Related Work technique."""

from __future__ import annotations

from repro.experiments.speed_comparison import (
    run_distance_profile,
    run_speed_comparison,
)


def test_bench_speed_comparison(benchmark, report):
    comparison, fitts = benchmark.pedantic(
        run_speed_comparison,
        kwargs={"seed": 1, "menu_lengths": (8, 20), "repetitions": 4},
        rounds=1,
        iterations=1,
    )
    report(comparison)
    report(fitts)
    assert len(comparison.rows) == 12  # 6 techniques x 2 lengths


def test_bench_distance_profile(benchmark, report):
    """The decisive series: time vs scroll distance per technique."""
    result = benchmark.pedantic(
        run_distance_profile,
        kwargs={"seed": 1, "repetitions": 6},
        rounds=1,
        iterations=1,
    )
    report(result)
    rows = {(r[0], r[1]): r[2] for r in result.rows}
    # Buttons: near-linear growth — far targets cost much more than near.
    assert rows[("buttons", 23)] > 2.5 * rows[("buttons", 1)]
    # DistScroll: position control — far targets cost only modestly more.
    assert rows[("distscroll", 23)] < 2.5 * rows[("distscroll", 1)]
    # Crossover: buttons win adjacent-entry moves, lose far jumps.
    assert rows[("buttons", 1)] < rows[("distscroll", 1)]
    assert rows[("buttons", 23)] > rows[("distscroll", 23)]


def test_bench_fitts_law_closed_loop(benchmark, report):
    """Dedicated run confirming Fitts's law on the full stack."""
    _, fitts = benchmark.pedantic(
        run_speed_comparison,
        kwargs={
            "seed": 3,
            "menu_lengths": (8, 24),
            "repetitions": 4,
            "techniques": ("distscroll",),
        },
        rounds=1,
        iterations=1,
    )
    report(fitts)
    assert fitts.rows[0][2] > 0.0  # positive slope
