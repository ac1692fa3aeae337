"""EXT-RANGE — §7 Q2: is the 4–30 cm scrolling range appropriate?"""

from __future__ import annotations

from repro.experiments.range_sweep import run_range_sweep


def test_bench_range_sweep(benchmark, report):
    result = benchmark.pedantic(
        run_range_sweep,
        kwargs={"seed": 1, "n_entries": 10, "n_trials": 8, "n_users": 3},
        rounds=1,
        iterations=1,
    )
    report(result)
    excursions = result.column("mean_excursion_cm")
    assert excursions[-1] != excursions[0]
