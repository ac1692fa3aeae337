"""EXT-FUSION — activate the spare sensor slot for fold-back immunity."""

from __future__ import annotations

from repro.experiments.fusion import run_fusion


def test_bench_fusion(benchmark, report):
    result = benchmark.pedantic(
        run_fusion, kwargs={"seed": 1}, rounds=1, iterations=1
    )
    report(result)
    joined = " ".join(result.notes)
    # The dual-sensor device keeps its selection at every park depth.
    assert "dual=LOST" not in joined
    # And the deepest single-sensor park fails, motivating the fusion.
    assert "single=LOST" in joined
