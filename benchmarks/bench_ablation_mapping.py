"""ABL-MAP — ablate the equal-distance placement and the island gaps."""

from __future__ import annotations

from repro.experiments.ablation_mapping import run_ablation_mapping


def test_bench_ablation_mapping(benchmark, report):
    result = benchmark.pedantic(
        run_ablation_mapping,
        kwargs={"seed": 1, "n_entries": 12, "n_trials": 6, "n_users": 3},
        rounds=1,
        iterations=1,
    )
    report(result)
    by_variant = {r[0]: r for r in result.rows}
    assert by_variant["paper (equal-dist + gaps)"][1] < 0.01
    assert by_variant["naive (equal-code + gaps)"][1] > 0.3
