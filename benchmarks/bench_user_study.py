"""STUDY1 — the initial user study (§6): discovery + learning blocks."""

from __future__ import annotations

from repro.experiments.user_study import run_user_study


def test_bench_user_study(benchmark, report):
    result = benchmark.pedantic(
        run_user_study,
        kwargs={"seed": 0, "n_users": 12, "n_blocks": 4, "trials_per_block": 8},
        rounds=1,
        iterations=1,
    )
    report(result)
    # "nearly errorless" after the relation is learned.
    assert all(rate < 0.2 for rate in result.column("error_rate")[1:])
