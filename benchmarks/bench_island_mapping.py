"""MAP-ISL — island-mapping spacing, coverage and hold stability (§4.2)."""

from __future__ import annotations

from repro.experiments.island_mapping import run_island_mapping


def test_bench_island_mapping(benchmark, report):
    result = benchmark.pedantic(
        run_island_mapping,
        kwargs={"seed": 1, "hold_time_s": 4.0},
        rounds=1,
        iterations=1,
    )
    report(result)
    assert max(result.column("spacing_cv")) < 1e-6
    assert max(result.column("flicker_gap_hz")) <= 0.5
