"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import spantrace
import workloads

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PINS = json.loads((BENCH / "digests.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _repro_attributes() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded repro module and of its classes."""
    found = {}
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            found[(module_name, attr)] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for member, item in vars(value).items():
                    found[(f"{module_name}.{attr}", member)] = item
    return found


# ---------------------------------------------------------------------------
# wrappers restore what they patch
# ---------------------------------------------------------------------------
def test_every_wrapper_restores_the_attribute_it_patched():
    workloads.setup("suite")  # load every module the workloads use
    spantrace.instrument(spantrace.SpanLog()).restore()  # and the tracer
    before = _repro_attributes()
    log = spantrace.SpanLog()
    patches = spantrace.instrument(log)
    targets = patches.targets()
    assert len(targets) > 20
    for owner, attr, _own, original in targets:
        assert getattr(owner, attr) is not original
    patches.restore()
    assert patches.targets() == []
    for owner, attr, own, original in targets:
        if own:
            assert vars(owner)[attr] is original, (owner, attr)
        else:
            assert attr not in vars(owner), (owner, attr)
    assert _repro_attributes() == before
    leftovers = [
        key for key, value in _repro_attributes().items()
        if hasattr(value, "perfbench_span")
    ]
    assert leftovers == []


def test_function_imported_by_name_is_wrapped_where_it_is_looked_up():
    from repro.core import firmware, islands

    log = spantrace.SpanLog()
    patches = spantrace.instrument(log)
    try:
        assert firmware.build_island_map is islands.build_island_map
        assert firmware.build_island_map.perfbench_span == "core.islands:build"
    finally:
        patches.restore()


def test_patches_delete_an_inherited_attribute_on_restore():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    patches = spantrace.Patches()
    patches.replace(Child, "f", lambda self: 2)
    assert Child().f() == 2
    patches.restore()
    assert "f" not in vars(Child)
    assert Child().f() == 1


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------
def _synthetic_log() -> spantrace.SpanLog:
    """root a [0, 10] > b [1, 4] > c [2, 3]; a > d [5, 9]; root e [11, 12]."""
    log = spantrace.SpanLog()
    a = log.add("x.a:op", 0.0, 10.0)
    b = log.add("y.b:op", 1.0, 4.0, a)
    log.add("z.c:op", 2.0, 3.0, b)
    log.add("y.b:other", 5.0, 9.0, a)
    log.add("x.a:op", 11.0, 12.0)
    return log


def test_self_times_of_a_nested_span_tree():
    log = _synthetic_log()
    assert list(spantrace.self_times(log)) == [3.0, 2.0, 1.0, 4.0, 1.0]
    summary = spantrace.summarize(log, wall_s=15.0)
    assert summary["layers"] == {"x.a": 4.0, "y.b": 6.0, "z.c": 1.0}
    assert summary["unattributed_s"] == 4.0
    assert sum(summary["layers"].values()) + summary["unattributed_s"] == 15.0
    names = summary["names"]
    assert names["x.a:op"]["count"] == 2
    assert names["x.a:op"]["total_s"] == 11.0
    assert names["y.b:other"]["self_s"] == 4.0


def test_recorded_spans_nest_and_add_up():
    log = spantrace.SpanLog()

    def leaf():
        return 7

    traced_leaf = log.wrap(leaf, "inner.layer:leaf")

    def outer():
        return traced_leaf() + traced_leaf()

    traced_outer = log.wrap(outer, "outer.layer:call")
    assert traced_outer() == 14
    assert list(log.parent) == [-1, 0, 0]
    summary = spantrace.summarize(log, wall_s=log.end[0] - log.start[0])
    total = sum(summary["layers"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(summary["wall_s"], abs=1e-12)


def test_spans_close_when_the_wrapped_call_raises():
    log = spantrace.SpanLog()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        log.wrap(boom, "a.b:boom")()
    assert log.end[0] >= log.start[0]
    log.wrap(lambda: None, "a.b:after")()
    assert log.parent[1] == -1


def test_chrome_trace_is_complete_events():
    document = json.loads(
        spantrace.chrome_trace(_synthetic_log(), 0.0, "t", limit=3)
    )
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 3
    assert spans[1] == {
        "name": "y.b:op", "cat": "y.b", "ph": "X", "pid": 0, "tid": 0,
        "ts": 1e6, "dur": 3e6, "args": {"parent": 0},
    }
    assert document["otherData"]["spans_total"] == 5


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------
def test_calibration_scales_by_the_reference_pass():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.calibrate(3.0, ref) == pytest.approx(3.0)
    # The host ran at half speed during the measurement: the calibrated
    # time is half the measured one.
    assert hostspeed.calibrate(3.0, 2.0 * ref) == pytest.approx(1.5)


def test_reference_loop_takes_measurable_time():
    assert hostspeed.reference_s() > 1e-5


def test_sampler_samples_during_the_block_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler() as sampler:
        end = time.perf_counter() + 6 * hostspeed.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert 0.0 < sampler.spent_s < 6 * hostspeed.SAMPLE_PERIOD_S
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampler_reads_the_speed_after_a_short_block():
    with hostspeed.SpeedSampler() as sampler:
        pass
    assert len(sampler.samples) == 1
    assert sampler.mean_s == sampler.samples[0] > 0.0


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------
def test_workload_and_metric_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.WORKLOADS
    )


def test_prediction_table_names_every_per_layer_metric_once():
    table = json.loads((BENCH / "predictions.json").read_text())
    named = [m for row in table["layers"] for m in row["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in SPEC["per_layer"])
    workload_names = {w["name"] for w in SPEC["workloads"]}
    metric_names = {m["name"] for m in SPEC["end_to_end"]}
    for row in table["layers"]:
        assert set(row["no_change_on"]) <= workload_names
        for workload, metrics in row["moves"].items():
            assert workload in workload_names
            assert set(metrics) <= metric_names


def test_layer_metrics_cover_the_per_layer_list():
    summary = spantrace.summarize(spantrace.SpanLog(), wall_s=1.0)
    produced = set(spantrace.layer_metrics(summary, {}, 0))
    produced |= {"trace.overhead_ratio"}
    produced |= {m for m in (m["name"] for m in SPEC["per_layer"])
                 if m.startswith("runner.")}
    assert {m["name"] for m in SPEC["per_layer"]} == produced


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------
def test_tiny_arena_returns_its_pinned_digest():
    assert workloads.arena_unit(0, n_users=1).digests == PINS["tiny"]["arena"]


def test_tiny_study_returns_its_pinned_digest():
    assert workloads.study_unit(0, n_users=64).digests == PINS["tiny"]["study"]


def test_tiny_suite_returns_its_pinned_digests():
    ids = ["FIG4", "FIG5", "MAP-ISL", "SENS-FOLD"]
    out = workloads.suite_unit(0, jobs=1, ids=ids)
    assert out.digests == {i: PINS["suite"]["0"][i] for i in ids}


def test_arena_unit_matches_the_serial_driver():
    from repro.experiments.arena import run_arena

    unit = workloads.arena_unit(5, n_users=1)
    direct = workloads.sha256(
        workloads.snapshot_bytes(_arena_block(5)),
        run_arena(seed=5, n_users=1).csv_bytes(),
    )
    assert unit.digests["ARENA"] == direct


def _arena_block(seed):
    from repro.experiments.arena import run_arena_block

    return run_arena_block(seed, 0, 1)


def test_traced_tiny_arena_reproduces_the_untraced_digest():
    untraced = workloads.arena_unit(0, n_users=1).digests
    log = spantrace.SpanLog()
    patches = spantrace.instrument(log)
    try:
        traced = workloads.arena_unit(0, n_users=1).digests
    finally:
        patches.restore()
    assert traced == untraced
    layers = {spantrace.layer_of(name) for name in log.names}
    assert {"sim.kernel", "core.firmware", "hardware.adc"} <= layers


def test_every_pool_seed_is_pinned():
    for name, workload in workloads.WORKLOADS.items():
        assert sorted(PINS[name], key=int) == [
            str(s) for s in range(workload.pool)
        ]
