"""The ``repro bench`` suite and its perf-regression gate (PR 4)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import (
    BENCHMARKS,
    BenchRecord,
    check_report,
    format_report,
    run_benchmarks,
)
from repro.perf.bench import DEFAULT_THRESHOLD


def _report(benchmarks, derived=None, quick=False):
    """A minimal, well-formed report for gate tests."""
    return {
        "generated_by": "test",
        "quick": quick,
        "rounds": 1,
        "benchmarks": {
            name: {
                "wall_s": 1.0,
                "units": int(value),
                "unit_name": "units",
                "units_per_s": float(value),
                "rounds": 1,
            }
            for name, value in benchmarks.items()
        },
        "derived": dict(derived or {}),
    }


class TestBenchRecord:
    def test_units_per_s(self):
        record = BenchRecord("x", wall_s=0.5, units=100, unit_name="events",
                             rounds=1)
        assert record.units_per_s == 200.0

    def test_zero_wall_does_not_divide(self):
        record = BenchRecord("x", wall_s=0.0, units=100, unit_name="events",
                             rounds=1)
        assert record.units_per_s == 0.0

    def test_to_json_round_trips_the_gate_fields(self):
        payload = BenchRecord("x", wall_s=0.5, units=100,
                              unit_name="events", rounds=3).to_json()
        assert payload["units_per_s"] == 200.0
        assert payload["unit_name"] == "events"
        assert payload["rounds"] == 3


class TestRunBenchmarks:
    def test_subset_run_produces_report_shape(self):
        report = run_benchmarks(only=["island-map"], quick=True)
        assert report["quick"] is True
        assert set(report["benchmarks"]) == {"island-map"}
        entry = report["benchmarks"]["island-map"]
        assert entry["units"] > 0
        assert entry["units_per_s"] > 0
        assert report["derived"] == {}  # no ratio pair in the subset

    def test_report_names_its_sources(self):
        from repro.runner.cache import source_digest

        report = run_benchmarks(only=["island-map"], quick=True)
        assert report["source_digest"] == source_digest()
        assert len(report["source_digest"]) == 64

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown benchmarks"):
            run_benchmarks(only=["nope"])

    def test_registry_names_are_stable(self):
        # BENCH_perf.json keys live in git; renames must be deliberate.
        assert {
            "calib-sweep-scalar",
            "kernel-events",
            "kernel-cancel-churn",
            "runner-fanout",
            "lint-tree",
        } <= set(BENCHMARKS)

    def test_runner_fanout_reports_scheduler_efficiency(self):
        report = run_benchmarks(only=["runner-fanout"], quick=True)
        entry = report["benchmarks"]["runner-fanout"]
        assert entry["backend"] == "workqueue"
        assert entry["workers"] == 4
        assert entry["units"] > 0
        efficiency = report["derived"]["scheduler_efficiency"]
        assert 0.0 < efficiency <= 1.0
        # The notes of the best round and the derived value must agree.
        assert entry["scheduler_efficiency"] == efficiency


class TestPairedRatios:
    def test_rounds_alternate_and_report_the_median(self, monkeypatch):
        import repro.perf.bench as bench

        calls: list[str] = []

        def factory(name):
            def workload():
                calls.append(name)
                return 1000

            return lambda quick: workload

        fake = {
            "device-second": (factory("plain"), "events"),
            "device-second-observed": (factory("observed"), "events"),
        }
        monkeypatch.setattr(bench, "BENCHMARKS", fake)
        report = bench.run_benchmarks(quick=True)
        rounds = report["paired_rounds"]
        assert calls[:4] == ["observed", "plain", "plain", "observed"]
        assert len(calls) == 2 * rounds
        per_round = report["ratio_rounds"]["obs_enabled_ratio"]
        assert len(per_round) == rounds
        assert report["derived"]["obs_enabled_ratio"] == sorted(per_round)[
            rounds // 2
        ]
        # Absolute throughput stays best-of: the best of every round run.
        assert report["benchmarks"]["device-second"]["rounds"] == rounds

    def test_lone_half_of_a_pair_is_unpaired_best_of_n(self):
        report = run_benchmarks(only=["device-second"], quick=True)
        assert report["derived"] == {}
        assert report["ratio_rounds"] == {}
        assert report["benchmarks"]["device-second"]["rounds"] == 2


class TestCheckReport:
    def test_passes_when_identical(self):
        baseline = _report({"a": 100.0}, {"obs_enabled_ratio": 0.6})
        assert check_report(baseline, baseline) == []

    def test_fails_on_throughput_regression(self):
        baseline = _report({"a": 100.0})
        current = _report({"a": 100.0 * (1.0 - DEFAULT_THRESHOLD) - 1.0})
        failures = check_report(current, baseline)
        assert len(failures) == 1
        assert "below baseline" in failures[0]

    def test_tolerates_drop_within_threshold(self):
        baseline = _report({"a": 100.0})
        current = _report({"a": 80.0})  # 20% < 25% threshold
        assert check_report(current, baseline) == []

    def test_missing_benchmark_fails(self):
        failures = check_report(_report({}), _report({"a": 100.0}))
        assert failures == ["a: in baseline but not measured"]

    def test_quick_vs_full_skips_absolute_throughput(self):
        """Quick workloads are sized differently, so a quick run checked
        against the committed full baseline must skip throughput floors."""
        baseline = _report({"a": 100.0}, {"obs_enabled_ratio": 0.6})
        current = _report({"a": 10.0}, {"obs_enabled_ratio": 0.6}, quick=True)
        assert check_report(current, baseline) == []

    def test_derived_ratio_relative_check_is_same_mode_only(self):
        """Ratios are workload-size-dependent too (a quick run's fixed
        costs weigh differently on each half of a ratio), so the relative
        comparison only holds within a mode."""
        baseline = _report({}, {"obs_enabled_ratio": 0.6})
        cross = _report({}, {"obs_enabled_ratio": 0.4}, quick=True)
        assert check_report(cross, baseline) == []
        same = _report({}, {"obs_enabled_ratio": 0.4})
        failures = check_report(same, baseline)
        assert any("obs_enabled_ratio" in f for f in failures)

    def test_derived_missing_fails_even_across_modes(self):
        baseline = _report({}, {"obs_enabled_ratio": 0.6})
        current = _report({}, {}, quick=True)
        failures = check_report(current, baseline)
        assert failures == [
            "derived obs_enabled_ratio: in baseline but not measured"
        ]

    def test_custom_threshold(self):
        baseline = _report({"a": 100.0})
        current = _report({"a": 89.0})
        assert check_report(current, baseline, threshold=0.10)
        assert check_report(current, baseline, threshold=0.20) == []

    def test_scheduler_efficiency_floor_full_mode(self):
        report = _report({}, {"scheduler_efficiency": 0.5})
        failures = check_report(report, _report({}))
        assert any("scheduler efficiency" in f for f in failures)

    def test_scheduler_efficiency_floor_skipped_in_quick_mode(self):
        """Quick-mode shards are too small to amortize worker handoff,
        so the absolute utilisation floor only gates full runs."""
        report = _report({}, {"scheduler_efficiency": 0.5}, quick=True)
        assert check_report(report, _report({}, quick=True)) == []

    def test_scheduler_efficiency_passes_above_floor(self):
        report = _report({}, {"scheduler_efficiency": 0.93})
        assert check_report(report, _report({})) == []

    def test_scheduler_efficiency_custom_floor(self):
        report = _report({}, {"scheduler_efficiency": 0.93})
        failures = check_report(report, _report({}), min_efficiency=0.95)
        assert any("scheduler efficiency" in f for f in failures)


class TestFormatReport:
    def test_renders_each_benchmark_and_ratio(self):
        text = format_report(
            _report({"a": 100.0, "b": 2.0}, {"obs_enabled_ratio": 0.6})
        )
        assert "a" in text and "b" in text
        assert "obs_enabled_ratio: 0.60x" in text


class TestBenchCLI:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in BENCHMARKS:
            assert name in out

    def test_unknown_only_exits_2(self, capsys):
        assert main(["bench", "--only", "nope"]) == 2
        assert "unknown benchmarks" in capsys.readouterr().err

    def test_run_benchmarks_keyerror_never_escapes(
        self, capsys, monkeypatch
    ):
        """Regression: a KeyError from run_benchmarks must become a
        clean exit 2 listing the valid names, never a raw traceback —
        even if the CLI's own pre-validation drifts out of sync."""
        import repro.perf

        def explode(**_kwargs):
            raise KeyError("unknown benchmarks: ghost")

        monkeypatch.setattr(repro.perf, "run_benchmarks", explode)
        assert main(["bench", "--only", "island-map"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmarks: ghost" in err
        assert "valid names" in err
        assert "island-map" in err

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        code = main([
            "bench", "--quick", "--only", "island-map",
            "--output", str(tmp_path / "out.json"),
            "--check", str(tmp_path / "missing.json"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_writes_report_and_passes_gate(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        baseline_path = tmp_path / "baseline.json"
        # Seed an easy baseline, then check against it.
        baseline = _report({"island-map": 1.0}, quick=True)
        baseline_path.write_text(json.dumps(baseline))
        code = main([
            "bench", "--quick", "--only", "island-map",
            "--output", str(out_path), "--check", str(baseline_path),
        ])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert "island-map" in report["benchmarks"]
        assert "perf gate passed" in capsys.readouterr().out

    def test_gate_failure_exits_1(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        baseline_path = tmp_path / "baseline.json"
        baseline = _report({"island-map": 1e15}, quick=True)
        baseline_path.write_text(json.dumps(baseline))
        code = main([
            "bench", "--quick", "--only", "island-map",
            "--output", str(out_path), "--check", str(baseline_path),
        ])
        assert code == 1
        assert "perf gate FAILED" in capsys.readouterr().err


class TestCommittedBaseline:
    def test_bench_perf_json_is_well_formed(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
        report = json.loads(path.read_text())
        assert report["quick"] is False
        assert set(report["benchmarks"]) == set(BENCHMARKS)
        for entry in report["benchmarks"].values():
            assert entry["units_per_s"] > 0
        # Observability keeps >= 0.55x of null-recorder throughput (the
        # hot-path bugfix sweep's floor).
        assert report["derived"]["obs_enabled_ratio"] >= 0.55
        # Runner-v2 acceptance: the scheduler keeps >= 0.8 worker
        # utilisation on the skewed fan-out (cost-aware LPT ordering +
        # as-completed collection; see repro.perf.fanout).
        assert report["derived"]["scheduler_efficiency"] >= 0.8
