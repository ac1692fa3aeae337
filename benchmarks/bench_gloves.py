"""ABL-GLOVE — §5.2: gloved interaction across techniques + stocktaking."""

from __future__ import annotations

from repro.experiments.gloves_bench import run_gloves_bench, run_stocktaking_by_glove


def test_bench_gloves_matrix(benchmark, report):
    result = benchmark.pedantic(
        run_gloves_bench,
        kwargs={"seed": 1, "n_entries": 12, "n_trials": 8},
        rounds=1,
        iterations=1,
    )
    report(result)
    slowdown = {(r[0], r[1]): r[4] for r in result.rows}
    assert slowdown[("arctic", "distscroll")] < slowdown[("arctic", "touch")]


def test_bench_stocktaking_by_glove(benchmark, report):
    result = benchmark.pedantic(
        run_stocktaking_by_glove,
        kwargs={"seed": 2, "n_items": 4},
        rounds=1,
        iterations=1,
    )
    report(result)
    assert all(rate > 2.0 for rate in result.column("items_per_minute"))
