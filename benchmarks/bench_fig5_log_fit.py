"""FIG5 — regenerate the log-axis sensor plot of Figure 5."""

from __future__ import annotations

from repro.experiments.fig5 import run_fig5


def test_bench_fig5(benchmark, report):
    result = benchmark.pedantic(
        run_fig5, kwargs={"seed": 0, "readings_per_point": 16},
        rounds=3, iterations=1,
    )
    report(result)
    r2 = float(result.notes[0].split("R^2 = ")[1].rstrip(")"))
    assert r2 > 0.99
