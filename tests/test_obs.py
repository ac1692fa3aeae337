"""Tests for the observability layer (repro.obs).

Covers the metric instruments and their merge semantics, the recorder's
span machinery, the off-by-default binding (no active recorder, every
instrument ``None``), the exporters — with a
committed golden pinning the Chrome trace-event JSON bytes for one
seeded run — the runner integration (``observe=True`` is byte-identical
across job counts), and the ``trace`` / ``metrics`` CLI commands.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Recorder,
    SNAPSHOT_VERSION,
    active_recorder,
    format_metrics,
    format_spans,
    merge_snapshots,
    metric_summaries,
    set_active_recorder,
    to_chrome_trace,
    to_jsonl,
    use_recorder,
)
from repro.runner import run_experiments
from repro.runner.sharding import (
    execute_shard,
    make_shards,
    merge_shard_results,
)
from repro.runner.registry import REGISTRY

GOLDEN = Path(__file__).resolve().parent / "data" / "obs_chrome_trace_golden.json"


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------
class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_non_positive(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(0)
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(2)
        assert counter.snapshot() == {"type": "counter", "value": 2}


class TestGauge:
    def test_last_value_wins(self):
        gauge = Gauge("g")
        assert gauge.snapshot() == {"type": "gauge", "last": None}
        gauge.set(1.5, time=0.1)
        gauge.set(2.5, time=0.2)
        assert gauge.snapshot() == {"type": "gauge", "last": [0.2, 2.5]}


class TestHistogram:
    def test_binning_and_stats(self):
        hist = Histogram("h", low=1.0, high=1000.0, bins_per_decade=1)
        for value in (0.5, 5.0, 50.0, 5000.0):
            hist.observe(value)
        snap = hist.snapshot()
        # underflow, [1,10), [10,100), [100,1000), overflow-edge, overflow
        assert snap["counts"][0] == 1  # 0.5 underflows
        assert snap["counts"][-1] == 1  # 5000 overflows
        assert snap["count"] == 4
        assert hist.min == 0.5 and hist.max == 5000.0
        assert hist.mean == pytest.approx(1263.875)

    def test_sum_is_exact_rational(self):
        hist = Histogram("h")
        hist.observe(0.1)
        hist.observe(0.2)
        num, den = hist.snapshot()["sum"]
        assert Fraction(num, den) == Fraction(0.1) + Fraction(0.2)

    def test_rejects_nan_and_bad_spec(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.observe(float("nan"))
        with pytest.raises(ValueError):
            Histogram("h", low=2.0, high=1.0)
        with pytest.raises(ValueError):
            Histogram("h", bins_per_decade=0)

    def test_fixed_edges_are_spec_determined(self):
        a = Histogram("a", low=1e-3, high=1e3, bins_per_decade=3)
        b = Histogram("b", low=1e-3, high=1e3, bins_per_decade=3)
        assert a.edges == b.edges

    def test_empty_mean_is_none(self):
        assert Histogram("h").mean is None


class TestMetricRegistry:
    def test_instruments_unique_per_name(self):
        registry = MetricRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_keys_sorted(self):
        registry = MetricRegistry()
        registry.counter("zebra")
        registry.counter("aardvark")
        assert list(registry.snapshot()) == ["aardvark", "zebra"]
        assert registry.names() == ["aardvark", "zebra"]

    def test_get(self):
        registry = MetricRegistry()
        assert registry.get("missing") is None
        counter = registry.counter("c")
        assert registry.get("c") is counter


class TestMergeSnapshots:
    def test_counters_add(self):
        a = {"n": {"type": "counter", "value": 2}}
        b = {"n": {"type": "counter", "value": 3}}
        assert merge_snapshots(a, b)["n"]["value"] == 5

    def test_gauges_keep_latest(self):
        a = {"g": {"type": "gauge", "last": [1.0, 10.0]}}
        b = {"g": {"type": "gauge", "last": [2.0, 5.0]}}
        assert merge_snapshots(a, b)["g"]["last"] == [2.0, 5.0]
        assert merge_snapshots(b, a)["g"]["last"] == [2.0, 5.0]

    def test_histograms_add_elementwise(self):
        x = Histogram("h", low=1.0, high=10.0, bins_per_decade=1)
        y = Histogram("h", low=1.0, high=10.0, bins_per_decade=1)
        x.observe(2.0)
        y.observe(3.0)
        merged = merge_snapshots(
            {"h": x.snapshot()}, {"h": y.snapshot()}
        )["h"]
        assert merged["count"] == 2
        assert Fraction(*merged["sum"]) == Fraction(5)
        assert merged["min"] == 2.0 and merged["max"] == 3.0

    def test_empty_is_identity(self):
        a = {"n": {"type": "counter", "value": 2}}
        assert merge_snapshots(a, {}) == a
        assert merge_snapshots({}, a) == a

    def test_disjoint_names_union(self):
        a = {"x": {"type": "counter", "value": 1}}
        b = {"y": {"type": "counter", "value": 2}}
        assert sorted(merge_snapshots(a, b)) == ["x", "y"]

    def test_type_mismatch_raises(self):
        a = {"n": {"type": "counter", "value": 2}}
        b = {"n": {"type": "gauge", "last": None}}
        with pytest.raises(ValueError):
            merge_snapshots(a, b)

    def test_histogram_spec_mismatch_raises(self):
        x = Histogram("h", low=1.0, high=10.0)
        y = Histogram("h", low=1.0, high=100.0)
        with pytest.raises(ValueError):
            merge_snapshots({"h": x.snapshot()}, {"h": y.snapshot()})


# ---------------------------------------------------------------------------
# recorder
# ---------------------------------------------------------------------------
class TestRecorder:
    def test_span_nesting_depths(self):
        recorder = Recorder()
        recorder.begin_span("outer", 0.0)
        recorder.emit_span("leaf", 0.0, 0.5, {"k": 1})
        recorder.end_span(1.0)
        assert [(s["name"], s["depth"]) for s in recorder.spans] == [
            ("leaf", 1),
            ("outer", 0),
        ]

    def test_span_context_manager_reads_clock_twice(self):
        recorder = Recorder()
        times = iter([1.0, 2.0])
        with recorder.span("tick", lambda: next(times), stage="adc"):
            pass
        (span,) = recorder.spans
        assert span["start"] == 1.0 and span["end"] == 2.0
        assert span["attrs"] == {"stage": "adc"}

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Recorder().end_span(1.0)

    def test_end_before_start_raises(self):
        recorder = Recorder()
        recorder.begin_span("s", 2.0)
        with pytest.raises(ValueError):
            recorder.end_span(1.0)

    def test_span_sequence_matches_span_by_span(self):
        """The same tick emitted fused and span by span."""
        stages = [
            ("tick.buttons", 1.25e-5, {"cycles": 75}),
            ("tick.adc", 3.0e-5, {"cycles": 180}),
            ("tick.filter", 0.1 / 3.0, {"cycles": 200, "window": 5}),
        ]
        tick_attrs = {"cycles": 455}
        runs = []
        for fused in (True, False):
            recorder = Recorder()
            recorder.begin_span("outer", 0.0)
            for now in (0.02, 0.04, 0.06):
                if fused:
                    recorder.emit_span_sequence("tick", now, tick_attrs, stages)
                    continue
                recorder.begin_span("tick", now)
                cursor = now
                for name, duration, attrs in stages:
                    recorder.emit_span(name, cursor, cursor + duration, attrs)
                    cursor += duration
                recorder.end_span(cursor, tick_attrs)
            recorder.end_span(1.0)
            runs.append(recorder.spans)
        fused_spans, spans = runs
        assert fused_spans == spans
        assert [s["depth"] for s in spans[:4]] == [2, 2, 2, 1]

    def test_span_sequence_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            Recorder().emit_span_sequence("tick", 0.0, {}, [("stage", -1.0, {})])

    def test_payload_shape(self):
        recorder = Recorder()
        recorder.counter("c")
        recorder.gauge("g", 1.0, 0.5)
        recorder.observe("h", 0.25)
        recorder.emit_span("s", 0.0, 1.0)
        payload = recorder.payload()
        assert payload["version"] == SNAPSHOT_VERSION
        assert sorted(payload["metrics"]) == ["c", "g", "h"]
        assert len(payload["spans"]) == 1
        # JSON-safe end to end.
        json.dumps(payload)


def _bound_instruments() -> dict[str, object]:
    """What each instrumented component of a faulted device bound to."""
    from repro.core.device import DistScroll
    from repro.core.menu import build_menu
    from repro.faults import FaultPlan

    plan = FaultPlan()
    device = DistScroll(build_menu(["Alpha", "Beta"]), seed=3, fault_plan=plan)
    board = device.board
    return {
        "Simulator._obs_recorder": device.sim._obs_recorder,
        "Simulator._obs_events": device.sim._obs_events,
        "ADC._obs_samples": board.adc._obs_samples,
        "I2CBus._obs": board.i2c._obs,
        "FaultPlan._obs": plan._obs,
        "Firmware._obs": device.firmware._obs,
    }


class TestActiveRecorder:
    def test_off_path_binds_none(self):
        assert active_recorder() is None
        bound = _bound_instruments()
        assert bound == dict.fromkeys(bound)

    def test_observed_path_binds_the_recorder(self):
        recorder = Recorder()
        with use_recorder(recorder):
            bound = _bound_instruments()
        metrics = recorder.metrics
        assert bound == {
            "Simulator._obs_recorder": recorder,
            "Simulator._obs_events": metrics.counter("kernel.events.dispatched"),
            "ADC._obs_samples": metrics.counter("adc.samples"),
            "I2CBus._obs": recorder,
            "FaultPlan._obs": recorder,
            "Firmware._obs": recorder,
        }

    def test_use_recorder_scopes_and_restores(self):
        recorder = Recorder()
        before = active_recorder()
        with use_recorder(recorder):
            assert active_recorder() is recorder
        assert active_recorder() is before

    def test_set_active_returns_previous(self):
        recorder = Recorder()
        previous = set_active_recorder(recorder)
        try:
            assert active_recorder() is recorder
        finally:
            assert set_active_recorder(previous) is recorder


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
def _sample_payload() -> dict:
    recorder = Recorder()
    recorder.counter("kernel.events.dispatched", 7)
    recorder.gauge("firmware.battery.volts", 8.9, 0.5)
    recorder.observe("firmware.tick.cycles", 250.0, low=1.0, high=1e6)
    recorder.emit_span("firmware.tick", 0.0, 0.02, {"cycles": 250})
    return recorder.payload()


class TestExporters:
    def test_chrome_trace_schema(self):
        document = json.loads(to_chrome_trace(_sample_payload(), "t"))
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["generator"] == "repro.obs"
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        (span,) = [e for e in events if e["ph"] == "X"]
        assert span["name"] == "firmware.tick"
        assert span["ts"] == 0.0
        assert span["dur"] == pytest.approx(0.02 * 1e6)
        assert span["pid"] == 0 and span["tid"] == 0
        assert span["args"]["cycles"] == 250

    def test_jsonl_lines_parse(self):
        lines = to_jsonl(_sample_payload()).splitlines()
        records = [json.loads(line) for line in lines]
        kinds = [record["record"] for record in records]
        assert kinds[0] == "meta"
        assert kinds.count("metric") == 3
        assert kinds.count("span") == 1

    def test_metric_summaries_flatten(self):
        summary = metric_summaries(_sample_payload()["metrics"])
        assert summary["kernel.events.dispatched"]["value"] == 7
        assert summary["firmware.battery.volts"]["value"] == 8.9
        assert summary["firmware.tick.cycles"]["mean"] == 250.0

    def test_format_metrics_sections(self):
        text = format_metrics(_sample_payload())
        assert "counters:" in text
        assert "gauges:" in text
        assert "histograms:" in text
        assert "kernel.events.dispatched" in text

    def test_format_metrics_no_histogram_bars(self):
        text = format_metrics(_sample_payload(), histograms=False)
        assert "#" not in text

    def test_format_spans_table(self):
        text = format_spans(_sample_payload())
        assert "firmware.tick" in text
        assert "1 span(s) total" in text

    def test_empty_payload_exports(self):
        assert "no metrics recorded" in format_metrics({})
        assert "no spans recorded" in format_spans({})
        json.loads(to_chrome_trace({}))


class TestChromeTraceGolden:
    """Pin the exporter bytes for one seeded run against a golden file.

    Regenerate (after an intentional schema change) with the snippet in
    this test, writing to ``tests/data/obs_chrome_trace_golden.json``.
    """

    def _trace(self) -> str:
        from repro.core.device import DistScroll
        from repro.core.menu import build_menu

        recorder = Recorder()
        with use_recorder(recorder):
            device = DistScroll(
                build_menu(["Alpha", "Beta", "Gamma"]), seed=42
            )
            device.hold_at(12.0)
            device.run_for(0.12)
        return to_chrome_trace(recorder.payload(), title="obs-golden")

    def test_bytes_match_golden(self):
        if not GOLDEN.exists():
            pytest.skip("golden file not committed")
        assert self._trace() == GOLDEN.read_text()

    def test_golden_is_valid_chrome_trace(self):
        if not GOLDEN.exists():
            pytest.skip("golden file not committed")
        document = json.loads(GOLDEN.read_text())
        assert set(document) == {
            "displayTimeUnit", "otherData", "traceEvents"
        }
        for event in document["traceEvents"]:
            assert event["ph"] in {"M", "X"}
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert {"name", "cat", "pid", "tid", "ts", "args"} <= set(
                    event
                )


# ---------------------------------------------------------------------------
# runner + harness integration
# ---------------------------------------------------------------------------
class TestRunnerIntegration:
    def test_observed_run_attaches_payload(self):
        results, _ = run_experiments(
            ["FIG4"], seed=0, jobs=1, observe=True
        )
        obs = results["FIG4"].obs
        assert obs is not None
        assert obs["version"] == SNAPSHOT_VERSION
        assert obs["metrics"]["runner.shards"]["value"] >= 1
        assert all("shard" in span for span in obs["spans"])

    def test_unobserved_run_has_no_payload(self):
        results, _ = run_experiments(["FIG4"], seed=0, jobs=1)
        assert results["FIG4"].obs is None

    def test_trace_bytes_identical_across_job_counts(self):
        spec = REGISTRY["MAP-ISL"]
        results1, _ = run_experiments(
            ["MAP-ISL"], seed=1, jobs=1, observe=True
        )
        results3, _ = run_experiments(
            ["MAP-ISL"], seed=1, jobs=3, observe=True
        )
        assert spec.sharder == "param"  # a real multi-shard merge
        trace1 = to_chrome_trace(results1["MAP-ISL"].obs, "MAP-ISL")
        trace3 = to_chrome_trace(results3["MAP-ISL"].obs, "MAP-ISL")
        assert trace1 == trace3

    def test_merge_is_shard_order_independent(self):
        spec = REGISTRY["MAP-ISL"]
        shards = make_shards(spec, seed=1)[:2]
        parts = [
            execute_shard(spec, seed=1, shard=shard, observe=True)
            for shard in shards
        ]
        forward = merge_shard_results(spec, parts)
        backward = merge_shard_results(spec, list(reversed(parts)))
        assert forward.obs == backward.obs

    def test_observation_does_not_change_rows(self):
        plain, _ = run_experiments(["FIG4"], seed=0, jobs=1)
        observed, _ = run_experiments(
            ["FIG4"], seed=0, jobs=1, observe=True
        )
        assert plain["FIG4"].csv_bytes() == observed["FIG4"].csv_bytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestObsCLI:
    def test_metrics_bare_prints_stage_histograms(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "firmware.tick.cycles" in out
        assert "firmware.stage.adc.cycles" in out
        assert "adc.samples" in out
        assert "histograms:" in out

    def test_metrics_experiment(self, capsys):
        assert main(["metrics", "FIG4", "--no-histograms"]) == 0
        out = capsys.readouterr().out
        assert "calibration.points" in out

    def test_metrics_unknown_experiment(self, capsys):
        assert main(["metrics", "NOPE"]) == 2

    def test_trace_summary_and_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "fig4.jsonl"
        assert main(
            ["trace", "FIG4", "--out", str(out_path), "--format", "jsonl"]
        ) == 0
        assert "calibration.point" in capsys.readouterr().out
        for line in out_path.read_text().splitlines():
            json.loads(line)

    def test_run_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "fig4-trace.json"
        assert main(["run", "FIG4", "--trace-out", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["traceEvents"][0]["args"]["name"] == "FIG4"
        assert any(
            event.get("name") == "calibration.point"
            for event in document["traceEvents"]
        )
