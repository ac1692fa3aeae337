"""ABL-FW — firmware filtering sweep: flicker vs latency tradeoff."""

from __future__ import annotations

from repro.experiments.firmware_ablation import run_firmware_ablation


def test_bench_firmware_ablation(benchmark, report):
    result = benchmark.pedantic(
        run_firmware_ablation,
        kwargs={"seed": 1, "hold_time_s": 5.0},
        rounds=1,
        iterations=1,
    )
    report(result)
    flicker = result.column("boundary_flicker_hz")
    latency = result.column("step_latency_ms")
    # Heavier filtering monotonically trades flicker for latency.
    assert flicker[-1] < flicker[0]
    assert latency[-1] > latency[0]
    # Default (median 3, confirm 2) keeps latency well under perception.
    defaults = [r for r in result.rows if r[0] == 3 and r[1] == 2][0]
    assert defaults[3] < 250.0
