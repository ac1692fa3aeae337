"""SENS-FOLD — fold-back ambiguity, firmware latch, fast-scroll exploit."""

from __future__ import annotations

from repro.experiments.foldback import run_foldback


def test_bench_foldback(benchmark, report):
    result = benchmark.pedantic(
        run_foldback, kwargs={"seed": 2}, rounds=1, iterations=1
    )
    report(result)
    joined = " ".join(result.notes)
    assert "preserved=True with the fold-back latch" in joined
