"""FIG4 — regenerate the sensor voltage-vs-distance curve of Figure 4."""

from __future__ import annotations

from repro.experiments.fig4 import run_fig4


def test_bench_fig4(benchmark, report):
    result, calibration = benchmark.pedantic(
        run_fig4, kwargs={"seed": 0, "readings_per_point": 16},
        rounds=3, iterations=1,
    )
    report(result)
    assert calibration.hyperbola.r2 > 0.999
