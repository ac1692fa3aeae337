"""EXT-DIR — §7 Q5: scroll down towards oneself, or away?"""

from __future__ import annotations

from repro.experiments.direction import run_direction


def test_bench_direction(benchmark, report):
    result = benchmark.pedantic(
        run_direction,
        kwargs={"seed": 2, "n_users": 10, "n_trials": 10, "n_entries": 10},
        rounds=1,
        iterations=1,
    )
    report(result)
    assert len(result.rows) == 2
