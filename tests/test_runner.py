"""Tests for the parallel experiment runner (repro.runner).

The subsystem's contract: ``--jobs 1`` and ``--jobs N`` produce
byte-identical merged CSVs, sharded execution reproduces the legacy
serial rows exactly, and a cache hit recomputes nothing (proven via the
kernel's global event counter).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.harness import ExperimentResult
from repro.runner import (
    REGISTRY,
    ResultCache,
    make_shards,
    run_experiments,
    source_digest,
)
from repro.runner.registry import scaled_user_study_spec
from repro.runner.sharding import merge_shard_results
from repro.sim import kernel

#: Issue-mandated determinism targets: one unsharded, one param-sharded,
#: one param-sharded with per-row fault machinery.
DETERMINISM_IDS = ["FIG4", "MAP-ISL", "ROB-FAULT"]


class TestRegistry:
    def test_registry_matches_cli_runners(self, capsys):
        assert main(["experiments"]) == 0
        assert capsys.readouterr().out.split() == list(REGISTRY)

    def test_sharded_specs_declare_their_split(self):
        for spec in REGISTRY.values():
            if spec.sharder == "param":
                assert spec.shard_param is not None
                assert spec.shard_values
            if spec.sharder == "users":
                assert spec.user_entry and spec.aggregate_entry
                assert spec.seeds_entry

    def test_shard_lists_are_deterministic(self):
        for spec in REGISTRY.values():
            assert make_shards(spec, 3) == make_shards(spec, 3)

    def test_cache_token_distinguishes_specs(self):
        tokens = {spec.cache_token() for spec in REGISTRY.values()}
        assert len(tokens) == len(REGISTRY)


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self, tmp_path_factory):
        dir1 = tmp_path_factory.mktemp("jobs1")
        dir4 = tmp_path_factory.mktemp("jobs4")
        run_experiments(DETERMINISM_IDS, seed=0, jobs=1, csv_dir=dir1)
        run_experiments(DETERMINISM_IDS, seed=0, jobs=4, csv_dir=dir4)
        return dir1, dir4

    @pytest.mark.parametrize("experiment_id", DETERMINISM_IDS)
    def test_jobs1_and_jobs4_csvs_byte_identical(
        self, serial_and_parallel, experiment_id
    ):
        dir1, dir4 = serial_and_parallel
        csv1 = (dir1 / f"{experiment_id}.csv").read_bytes()
        csv4 = (dir4 / f"{experiment_id}.csv").read_bytes()
        assert csv1 == csv4
        assert len(csv1.splitlines()) > 1  # header + data

    def test_sharded_rows_match_legacy_serial_rows(self):
        """Param-sharding must reproduce the serial sweep exactly."""
        results, _ = run_experiments(["ROB-FAULT"], seed=0, jobs=1)
        legacy = REGISTRY["ROB-FAULT"].run_whole(0)
        assert results["ROB-FAULT"].csv_bytes() == (
            legacy.normalized().csv_bytes()
        )

    def test_user_sharded_study_matches_legacy(self):
        results, _ = run_experiments(["STUDY1"], seed=0, jobs=1)
        legacy = REGISTRY["STUDY1"].run_whole(0)
        assert results["STUDY1"].rows == legacy.normalized().rows
        # Aggregate-level notes are recomputed identically after merge.
        for note in legacy.notes:
            assert note in results["STUDY1"].notes

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiments(["NOPE"], seed=0)


class TestCache:
    def test_cache_hit_skips_recomputation(self, tmp_path):
        """Second run must be a pure cache read: zero kernel events."""
        cache = ResultCache(tmp_path / "cache")
        ids = ["FIG4", "MAP-ISL"]
        first, _ = run_experiments(ids, seed=0, jobs=1, cache=cache)
        events_before = kernel.global_events_processed()
        second, bench = run_experiments(ids, seed=0, jobs=1, cache=cache)
        assert kernel.global_events_processed() == events_before
        assert bench["cached_count"] == len(ids)
        for experiment_id in ids:
            assert (
                first[experiment_id].csv_bytes()
                == second[experiment_id].csv_bytes()
            )

    def test_cache_key_depends_on_seed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = REGISTRY["FIG4"]
        assert cache.shard_key(spec, 0, 0) != cache.shard_key(spec, 1, 0)

    def test_cache_roundtrip_preserves_result(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = REGISTRY["FIG4"]
        results, _ = run_experiments(["FIG4"], seed=0, jobs=1, cache=cache)
        loaded = cache.get_shard(spec, 0, 0)
        merged = merge_shard_results(spec, [loaded])
        assert merged.csv_bytes() == results["FIG4"].csv_bytes()
        assert merged.notes == results["FIG4"].notes
        assert loaded.wall_s > 0
        assert [p.suffixes for p in cache.root.iterdir()] == [
            [".shard", ".pkl"]
        ]

    def test_block_layout_is_part_of_the_shard_key(self, tmp_path):
        """A shard cached under one block size is not served under another."""
        cache = ResultCache(tmp_path / "cache")

        def study(users_per_shard):
            spec = scaled_user_study_spec(
                200, battery="smoke", users_per_shard=users_per_shard
            )
            results, bench = run_experiments(
                ["STUDY1"], seed=0, cache=cache, overrides={"STUDY1": spec}
            )
            return results["STUDY1"], bench["experiments"]["STUDY1"]

        whole, _entry = study(200)
        blocked, entry = study(50)
        assert entry["shards"] == 4
        assert entry["shards_from_cache"] == 0
        assert blocked.csv_bytes() == whole.csv_bytes()

    def test_no_cache_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_experiments(["MAP-ISL"], seed=0, jobs=1, cache=cache)
        events_before = kernel.global_events_processed()
        run_experiments(["MAP-ISL"], seed=0, jobs=1, cache=None)
        assert kernel.global_events_processed() > events_before


class TestBenchReport:
    def test_bench_json_written(self, tmp_path):
        bench_path = tmp_path / "BENCH_runner.json"
        _, bench = run_experiments(
            ["MAP-ISL"], seed=0, jobs=1, bench_path=bench_path
        )
        on_disk = json.loads(bench_path.read_text())
        assert on_disk["jobs"] == 1
        assert on_disk["experiment_count"] == 1
        entry = on_disk["experiments"]["MAP-ISL"]
        assert entry["wall_s"] > 0
        assert entry["events"] > 0
        assert entry["events_per_s"] > 0
        assert entry["cached"] is False
        assert on_disk["speedup_vs_serial_computed_only"] > 0

    def test_bench_json_names_its_sources(self, tmp_path):
        bench_path = tmp_path / "BENCH_runner.json"
        run_experiments(["MAP-ISL"], seed=0, jobs=1, bench_path=bench_path)
        on_disk = json.loads(bench_path.read_text())
        assert on_disk["source_digest"] == source_digest()
        assert len(on_disk["source_digest"]) == 64

    def test_cold_and_warm_entries_have_one_shape(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ids = ["FIG4", "MAP-ISL"]
        entries = []
        for _run in ("cold", "warm"):
            _, bench = run_experiments(ids, seed=0, jobs=1, cache=cache)
            entries.extend(bench["experiments"][i] for i in ids)
        assert len({frozenset(entry) for entry in entries}) == 1
        for entry in entries:
            assert entry["cached"] == (
                entry["shards_from_cache"] == entry["shards"]
            )
        assert [entry["cached"] for entry in entries] == [
            False, False, True, True
        ]
        assert not list(cache.root.glob("*.json"))

    def test_cached_run_reports_original_cost(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_experiments(["FIG4"], seed=0, jobs=1, cache=cache)
        _, bench = run_experiments(["FIG4"], seed=0, jobs=1, cache=cache)
        entry = bench["experiments"]["FIG4"]
        assert entry["cached"] is True
        assert entry["compute_wall_s"] > 0  # original cost, not this run's


class TestMerge:
    def test_merge_rejects_mismatched_columns(self):
        a = ExperimentResult("X", "t", columns=("a", "b"))
        b = ExperimentResult("X", "t", columns=("a", "c"))
        with pytest.raises(ValueError):
            ExperimentResult.merge([a, b])

    def test_merge_rejects_mismatched_ids(self):
        a = ExperimentResult("X", "t", columns=("a",))
        b = ExperimentResult("Y", "t", columns=("a",))
        with pytest.raises(ValueError):
            ExperimentResult.merge([a, b])

    def test_merge_concatenates_in_order(self):
        parts = []
        for i in range(3):
            part = ExperimentResult("X", "t", columns=("v",))
            part.add_row(i)
            parts.append(part)
        merged = ExperimentResult.merge(parts)
        assert merged.rows == [(0,), (1,), (2,)]

    def test_merge_keeps_only_shared_notes(self):
        a = ExperimentResult("X", "t", columns=("v",))
        b = ExperimentResult("X", "t", columns=("v",))
        a.note("shared")
        a.note("only-a")
        b.note("shared")
        merged = ExperimentResult.merge([a, b])
        assert merged.notes == ["shared"]


class TestCLIRunAll:
    def test_run_all_subset(self, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        bench = tmp_path / "BENCH_runner.json"
        code = main(
            [
                "run-all",
                "--only",
                "FIG4,MAP-ISL",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--csv-dir",
                str(csv_dir),
                "--bench",
                str(bench),
            ]
        )
        assert code == 0
        assert (csv_dir / "FIG4.csv").exists()
        assert (csv_dir / "MAP-ISL.csv").exists()
        assert bench.exists()
        out = capsys.readouterr().out
        assert "2 experiments" in out
        assert "speedup" in out

    def test_run_all_unknown_id(self, capsys):
        assert main(["run-all", "--only", "NOPE", "--no-cache"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().err

    def test_run_with_jobs_flag(self, capsys):
        assert main(["run", "MAP-ISL", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "MAP-ISL" in out
        assert "merged from 4 shards" in out

    def test_run_all_no_cache_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "run-all",
                "--only",
                "FIG4",
                "--no-cache",
                "--bench",
                str(tmp_path / "b.json"),
            ]
        )
        assert code == 0
        assert not (tmp_path / ".repro_cache").exists()
