"""ABL-LAYOUT — the §6 button-design study the authors promised."""

from __future__ import annotations

from repro.experiments.layouts import run_layouts


def test_bench_layouts(benchmark, report):
    result = benchmark.pedantic(
        run_layouts,
        kwargs={"seed": 1, "n_users": 8, "n_trials": 6},
        rounds=1,
        iterations=1,
    )
    report(result)
    rows = {(r[0], r[1]): r for r in result.rows}
    # The large button eliminates mitten fumbles.
    assert (
        rows[("single-large-button", "arctic")][3]
        < rows[("prototype-3-button", "arctic")][3]
    )
