"""EXT-PDA — the §7 PDA add-on vs the handheld prototype."""

from __future__ import annotations

from repro.experiments.pda import run_pda


def test_bench_pda(benchmark, report):
    result = benchmark.pedantic(
        run_pda,
        kwargs={"seed": 1, "n_trials": 8, "n_users": 3},
        rounds=1,
        iterations=1,
    )
    report(result)
    by_variant = {r[0]: r for r in result.rows}
    # The add-on preserves the technique: selection times within 2x.
    handheld = by_variant["handheld"][2]
    pda = by_variant["pda-addon"][2]
    assert 0.5 < pda / handheld < 2.0
    # The larger screen's visibility advantage.
    assert by_variant["pda-addon"][4] > by_variant["handheld"][4]
