"""ABL-CAL, EXT-POWER, EXT-BREADTH — extension benches."""

from __future__ import annotations

from repro.experiments.breadth import run_breadth
from repro.experiments.calibration_ablation import run_calibration_ablation
from repro.experiments.power import run_power


def test_bench_calibration_ablation(benchmark, report):
    result = benchmark.pedantic(
        run_calibration_ablation,
        kwargs={"seed": 2, "n_specimens": 4, "n_trials": 6},
        rounds=1,
        iterations=1,
    )
    report(result)
    by_key = {(r[0], r[1]): r for r in result.rows}
    # Per-unit calibration reduces corrective submovements at 10 entries.
    assert (
        by_key[(10, "calibrated")][3] <= by_key[(10, "datasheet")][3]
    )
    # And users always recover via display feedback.
    assert all(r[4] >= 0.8 for r in result.rows)


def test_bench_power(benchmark, report):
    result = benchmark.pedantic(
        run_power, kwargs={"seed": 1, "window_s": 60.0}, rounds=1,
        iterations=1,
    )
    report(result)
    life = dict(zip(result.column("workload"), result.column("battery_life_h")))
    # A 9 V block lasts a full study day on every workload.
    assert all(hours > 8.0 for hours in life.values())
    packets = dict(
        zip(result.column("workload"), result.column("rf_packets_per_min"))
    )
    assert packets["browsing"] > packets["idle"]


def test_bench_breadth(benchmark, report):
    result = benchmark.pedantic(
        run_breadth,
        kwargs={"seed": 1, "n_tasks": 5, "n_users": 2},
        rounds=1,
        iterations=1,
    )
    report(result)
    rows = {r[0]: r for r in result.rows}
    # Depth is the expensive axis: 3 levels cost more than 1 split.
    assert rows["64 deep (4^3)"][2] > rows["64 square (8^2)"][2] * 0.9
    assert all(r[4] >= 0.8 for r in result.rows)
