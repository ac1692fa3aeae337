"""SENS-ENV — calibration invariance across clothing and light (§4.2)."""

from __future__ import annotations

from repro.experiments.sensor_env import run_sensor_env


def test_bench_sensor_environment(benchmark, report):
    result = benchmark.pedantic(
        run_sensor_env,
        kwargs={"seed": 0, "readings_per_point": 8},
        rounds=1,
        iterations=1,
    )
    report(result)
    surfaces = result.column("surface")
    devs = result.column("max_dev_vs_ref_pct")
    benign = [d for s, d in zip(surfaces, devs) if "mirror" not in s and "vest" not in s]
    assert max(benign) < 15.0
