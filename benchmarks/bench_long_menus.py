"""EXT-LONG — §7 Q4: long menus, flat vs 10-entry chunking."""

from __future__ import annotations

from repro.experiments.long_menus import max_flat_entries, run_long_menus


def test_bench_long_menus(benchmark, report):
    result = benchmark.pedantic(
        run_long_menus,
        kwargs={
            "seed": 1,
            "menu_lengths": (10, 20, 40, 60),
            "n_trials": 6,
            "n_users": 2,
        },
        rounds=1,
        iterations=1,
    )
    report(result)
    assert len(result.rows) == 12  # 4 lengths x 3 modes


def test_bench_max_flat_entries(benchmark, report):
    limit = benchmark(max_flat_entries)
    from repro.experiments.harness import ExperimentResult

    result = ExperimentResult(
        experiment_id="EXT-LONG/limit",
        title="Hardware ceiling for unchunked menus",
        columns=("max_flat_entries",),
    )
    result.add_row(limit)
    result.note(
        "beyond this, adjacent islands collapse onto the same ADC codes"
    )
    report(result)
    assert limit > 20
