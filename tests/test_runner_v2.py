"""Runner v2: executors, shard cache, resume and crash retry.

The contract under test throughout: the merged CSV bytes are identical
for any job count (inline at 1, the work queue above), any crash/retry
interleaving and any cache/resume split.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf.fanout import fanout_spec
from repro.runner import (
    REGISTRY,
    ResultCache,
    ShardExecutionError,
    estimate_shard_cost,
    execute_shard,
    make_executor,
    make_shard,
    make_shards,
    n_shards,
    run_experiments,
)
from repro.runner.executors import InlineExecutor, WorkQueueExecutor
from repro.runner.pool import CrashPlanError

#: A fast skewed workload: one straggler, a tail of cheap shards.
FAST_SPEC = fanout_spec(costs=(6, 1, 1, 1), scale=5)


def _run_csv(tmp_path, name, spec=FAST_SPEC, **kwargs):
    """Run FANOUT into ``tmp_path/name`` and return the CSV bytes."""
    csv_dir = tmp_path / name
    _results, bench = run_experiments(
        ["FANOUT"],
        overrides={"FANOUT": spec},
        csv_dir=csv_dir,
        **kwargs,
    )
    return (csv_dir / "FANOUT.csv").read_bytes(), bench


class TestShardDerivation:
    def test_make_shard_matches_make_shards_for_every_registry_spec(self):
        for spec in REGISTRY.values():
            shards = make_shards(spec, seed=3)
            assert len(shards) == n_shards(spec, seed=3)
            for shard in shards:
                assert make_shard(spec, 3, shard.index) == shard

    def test_make_shard_rejects_out_of_range(self):
        spec = REGISTRY["MAP-ISL"]
        with pytest.raises(IndexError):
            make_shard(spec, 0, n_shards(spec, 0))
        with pytest.raises(IndexError):
            make_shard(spec, 0, -1)

    def test_block_cost_scales_with_block_size(self):
        spec = REGISTRY["STUDY1"]
        shards = make_shards(spec, 0)
        costs = [estimate_shard_cost(spec, shard) for shard in shards]
        assert all(cost > 0 for cost in costs)

    def test_param_numeric_payload_is_the_cost_proxy(self):
        shards = make_shards(FAST_SPEC, 0)
        costs = [estimate_shard_cost(FAST_SPEC, shard) for shard in shards]
        # The straggler (cost 6) must order strictly first under LPT.
        assert costs[0] == max(costs)
        assert costs[0] > costs[1]

class TestBackendParity:
    def test_all_backends_produce_identical_csv_bytes(self, tmp_path):
        reference, bench = _run_csv(tmp_path, "inline", jobs=1)
        assert bench["backend"] == "inline"
        for jobs in (2, 3):
            data, bench = _run_csv(tmp_path, f"wq-{jobs}", jobs=jobs)
            assert data == reference, jobs
            assert bench["backend"] == "workqueue"

    def test_default_backend_selection(self):
        assert isinstance(make_executor(1), InlineExecutor)
        executor = make_executor(2)
        try:
            assert isinstance(executor, WorkQueueExecutor)
        finally:
            executor.close()

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            make_executor(0)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_experiments(["FANOUT"], jobs=0, overrides={"FANOUT": FAST_SPEC})

    def test_crash_plan_rejected_off_workqueue(self):
        with pytest.raises(ValueError, match="jobs >= 2"):
            make_executor(1, crash_plan={("FANOUT", 0): 1})

    def test_crash_plan_must_name_a_shard_of_the_run(self):
        for plan in ({("NOPE", 0): 1}, {("FANOUT", 4): 1}):
            with pytest.raises(CrashPlanError):
                run_experiments(
                    ["FANOUT"],
                    jobs=2,
                    overrides={"FANOUT": FAST_SPEC},
                    crash_plan=plan,
                )


class TestErrorPropagation:
    BAD = fanout_spec(costs=(1, -1, 1), scale=1)

    def test_inline_raises_original_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_experiments(["FANOUT"], overrides={"FANOUT": self.BAD})

    def test_workqueue_raises_with_remote_traceback(self):
        """What a failing shard looks like under ``--jobs >= 2``."""
        with pytest.raises(ShardExecutionError, match="non-negative"):
            run_experiments(
                ["FANOUT"],
                jobs=2,
                overrides={"FANOUT": self.BAD},
            )


class TestCrashRetry:
    def test_killed_worker_retries_once_and_bytes_match(self, tmp_path):
        reference, bench = _run_csv(tmp_path, "ref", jobs=1)
        assert bench["experiments"]["FANOUT"]["retries"] == 0
        crashed, bench = _run_csv(
            tmp_path,
            "crash",
            jobs=2,
            crash_plan={("FANOUT", 0): 1},
        )
        assert crashed == reference
        entry = bench["experiments"]["FANOUT"]
        assert entry["retries"] == 1
        assert entry["shards_from_cache"] == 0

    def test_double_crash_still_converges(self, tmp_path):
        reference, _bench = _run_csv(tmp_path, "ref2", jobs=1)
        crashed, bench = _run_csv(
            tmp_path,
            "crash2",
            jobs=2,
            crash_plan={("FANOUT", 0): 2, ("FANOUT", 2): 1},
        )
        assert crashed == reference
        assert bench["experiments"]["FANOUT"]["retries"] == 3


class TestShardCacheAndResume:
    def test_interrupted_run_resumes_from_shard_cache(self, tmp_path):
        spec = FAST_SPEC
        cache = ResultCache(tmp_path / "cache")
        # Simulate an interrupted run: three of four shards are durable.
        for index in (0, 1, 3):
            cache.put_shard(
                spec, 0, index, execute_shard(spec, 0, make_shard(spec, 0, index))
            )
        reference, _bench = _run_csv(tmp_path, "ref", jobs=1)
        resumed, bench = _run_csv(
            tmp_path,
            "resumed",
            jobs=2,
            cache=ResultCache(tmp_path / "cache"),
        )
        assert resumed == reference
        entry = bench["experiments"]["FANOUT"]
        assert entry["cached"] is False
        assert entry["shards"] == 4
        assert entry["shards_from_cache"] == 3
        assert entry["retries"] == 0

    def test_second_run_is_served_whole_from_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _data, first = _run_csv(
            tmp_path, "first", jobs=1, cache=ResultCache(cache_dir)
        )
        assert first["experiments"]["FANOUT"]["shards_from_cache"] == 0
        _data, second = _run_csv(
            tmp_path, "second", jobs=1, cache=ResultCache(cache_dir)
        )
        # Every shard was cached as it landed, so the second run merges
        # them all from the cache and computes nothing.
        assert second["experiments"]["FANOUT"]["cached"] is True
        assert second["computed_wall_s"] == 0.0

class TestBenchReport:
    def test_speedup_vs_serial_computed_only_drops_on_cache_hits(
        self, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        _data, warm = _run_csv(
            tmp_path, "warm", jobs=1, cache=ResultCache(cache_dir)
        )
        assert warm["speedup_vs_serial_computed_only"] > 0
        _data, cached = _run_csv(
            tmp_path, "hot", jobs=1, cache=ResultCache(cache_dir)
        )
        # Everything served from cache: nothing computed, no speedup.
        assert "speedup_vs_serial" not in cached
        assert cached["speedup_vs_serial_computed_only"] == 0.0

    def test_bench_carries_scheduler_telemetry(self, tmp_path):
        _data, bench = _run_csv(tmp_path, "tele", jobs=2)
        assert bench["worker_utilisation"] is not None
        assert 0.0 < bench["worker_utilisation"] <= 1.0
        assert bench["fanout_wall_s"] > 0
        entry = bench["experiments"]["FANOUT"]
        assert entry["merge_s"] >= 0
        assert entry["queue_wait_s"] >= 0
        assert entry["shards_from_cache"] == 0


class TestCLIRunnerV2:
    def test_inject_crash_requires_workqueue(self, capsys):
        for argv in (
            ["run", "MAP-ISL", "--inject-crash", "MAP-ISL:0"],
            ["run", "MAP-ISL", "--jobs", "1", "--inject-crash", "MAP-ISL:0"],
        ):
            assert main(argv) == 2
            assert "--jobs >= 2" in capsys.readouterr().err

    def test_inject_crash_rejects_malformed_tokens(self, capsys):
        assert main(["run", "MAP-ISL", "--jobs", "2",
                     "--inject-crash", "MAP-ISL"]) == 2
        assert "EXPID:SHARD" in capsys.readouterr().err
        assert main(["run", "MAP-ISL", "--jobs", "2",
                     "--inject-crash", "MAP-ISL:x"]) == 2
        assert "integers" in capsys.readouterr().err

    def test_inject_crash_must_name_a_shard_of_the_run(self, capsys):
        # FIG4 runs as one shard; NOPE is not an experiment of the run.
        for token in ("FIG4:9", "NOPE:0"):
            assert main(["run", "FIG4", "--jobs", "2",
                         "--inject-crash", token]) == 2
            assert "crash plan names" in capsys.readouterr().err
        assert main(["run-all", "--only", "FIG4", "--no-cache", "--jobs",
                     "2", "--inject-crash", "MAP-ISL:0"]) == 2
        assert "not in this run" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run-all", "--resume"],
            ["run-all", "--speculate"],
            ["run-all", "--manifest", "m.json"],
            ["run", "FIG4", "--speculate"],
            ["run", "FIG4", "--manifest", "m.json"],
        ],
    )
    def test_removed_runner_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_all_workqueue_crash_matches_serial(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        serial = [
            "run-all", "--only", "MAP-ISL", "--no-cache",
            "--csv-dir", "serial", "--bench", "serial.json",
        ]
        assert main(serial) == 0
        crashed = [
            "run-all", "--only", "MAP-ISL", "--no-cache", "--jobs", "2",
            "--inject-crash", "MAP-ISL:1",
            "--csv-dir", "crashed", "--bench", "crashed.json",
        ]
        assert main(crashed) == 0
        assert "MAP-ISL" in capsys.readouterr().out
        serial_csv = (tmp_path / "serial" / "MAP-ISL.csv").read_bytes()
        crashed_csv = (tmp_path / "crashed" / "MAP-ISL.csv").read_bytes()
        assert crashed_csv == serial_csv
        bench = json.loads((tmp_path / "crashed.json").read_text())
        assert bench["backend"] == "workqueue"
        assert bench["experiments"]["MAP-ISL"]["retries"] == 1

    def test_run_resume_serves_shards_from_default_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["run", "MAP-ISL", "--resume"]) == 0
        first = capsys.readouterr()
        assert "4 shard(s), 0 from cache" in first.err
        assert "MAP-ISL" in first.out
        # Drop one shard entry: the state an interrupted run leaves
        # behind.
        cache_dir = tmp_path / "cache"
        next(cache_dir.glob("*.shard.pkl")).unlink()
        assert main(["run", "MAP-ISL", "--resume"]) == 0
        second = capsys.readouterr()
        assert "4 shard(s), 3 from cache" in second.err
        assert second.out == first.out
        # A third invocation merges every shard from the cache.
        assert main(["run", "MAP-ISL", "--resume"]) == 0
        assert "cached" in capsys.readouterr().err

    def test_run_crash_retry_is_reported_on_stderr(self, capsys):
        assert main(["run", "MAP-ISL", "--jobs", "2",
                     "--inject-crash", "MAP-ISL:0"]) == 0
        err = capsys.readouterr().err
        assert "shard 0 retried after 1 worker loss(es)" in err


class TestLPTOrdering:
    def test_inline_executor_runs_lpt_order_without_changing_bytes(
        self, tmp_path
    ):
        # Sanity anchor for the scheduler: shard execution order is a
        # pure makespan concern.  Force wildly different cost hints and
        # the bytes must not move.
        cheap_first = fanout_spec(costs=(6, 1, 1, 1), scale=5)
        reference, _bench = _run_csv(tmp_path, "lpt-ref", jobs=1)
        csv_dir = tmp_path / "lpt"
        run_experiments(
            ["FANOUT"],
            overrides={"FANOUT": cheap_first},
            csv_dir=csv_dir,
            jobs=2,
        )
        assert (csv_dir / "FANOUT.csv").read_bytes() == reference
