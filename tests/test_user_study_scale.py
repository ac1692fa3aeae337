"""Population-scale STUDY1: block equivalence, memory, job-invariance.

Three promises made by the streaming refactor, each pinned here:

* one serial pass over the population and a blockwise merge of the
  same population give the same table and notes;
* aggregator memory is O(1) in the user count — a 200k-user quick
  study peaks under 8 MiB and is flat between 50k and 200k;
* the sharded runner produces byte-identical CSVs for any ``--jobs``
  value and any ``users_per_shard`` block size.
"""

from __future__ import annotations

import json
import tracemalloc
from functools import reduce

import pytest

from repro.experiments.user_study import (
    StudyAggregate,
    UserOutcome,
    finalize_scaled_study,
    run_scaled_user_study,
    run_user_block,
)
from repro.runner.pool import run_experiments
from repro.runner.registry import scaled_user_study_spec


def snapshot_bytes(aggregate: StudyAggregate) -> bytes:
    return json.dumps(aggregate.snapshot(), sort_keys=True).encode()


class TestEquivalenceOracle:
    def test_serial_scaled_study_equals_blockwise_merge(self):
        whole = run_scaled_user_study(
            seed=0, n_users=400, users_per_shard=400
        )
        blocked = run_scaled_user_study(
            seed=0, n_users=400, users_per_shard=64
        )
        assert whole.csv_bytes() == blocked.csv_bytes()
        assert whole.notes == blocked.notes


def _synthetic_outcomes(n: int):
    """A cheap deterministic stream of varied two-segment outcomes."""
    cells = [
        f"{age}/{motor}/right/normal/none"
        for age in ("young", "adult", "senior")
        for motor in ("steady", "tremor")
    ]
    for i in range(n):
        errors = [0.25 * (i % 3 == 0), 0.125 * (i % 7 == 0)]
        times = [1.0 + (i % 11) * 0.05, 2.0 + (i % 5) * 0.07]
        subs = [1.0 + (i % 4) * 0.25, 1.0 + (i % 2) * 0.5]
        outcome = UserOutcome(
            discovered=i % 13 != 0,
            time_to_discovery_s=3.0 + (i % 17) * 0.3,
            exploratory_movements=3 + i % 6,
            block_errors=errors,
            block_times=times,
            block_subs=subs,
        )
        yield outcome, cells[i % len(cells)]


def _fold_and_peak(n_users: int) -> int:
    """Peak traced bytes while folding ``n_users`` synthetic outcomes."""
    aggregate = StudyAggregate(("short-mixed", "long-menu"))
    tracemalloc.start()
    try:
        for outcome, cell in _synthetic_outcomes(n_users):
            aggregate.add_outcome(outcome, cell=cell)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert aggregate.n_users == n_users
    return peak


class TestBoundedMemory:
    def test_200k_user_quick_study_memory_is_flat(self):
        """Aggregator state is O(1): <8 MiB, flat from 50k to 200k."""
        peak_small = _fold_and_peak(50_000)
        peak_large = _fold_and_peak(200_000)
        assert peak_large < 8 * 1024 * 1024, (
            f"200k-user fold peaked at {peak_large / 2**20:.1f} MiB — "
            "the aggregator is accumulating per-user state"
        )
        assert peak_large < peak_small + 1024 * 1024, (
            f"peak grew {peak_small} -> {peak_large} bytes between 50k "
            "and 200k users; streaming memory must not scale with n"
        )


class TestJobInvariance:
    def test_jobs_1_and_4_csv_bytes_identical(self):
        spec = scaled_user_study_spec(600, users_per_shard=150)
        serial, _ = run_experiments(
            ["STUDY1"], seed=0, jobs=1, overrides={"STUDY1": spec}
        )
        parallel, _ = run_experiments(
            ["STUDY1"], seed=0, jobs=4, overrides={"STUDY1": spec}
        )
        assert (
            serial["STUDY1"].csv_bytes() == parallel["STUDY1"].csv_bytes()
        )
        assert serial["STUDY1"].notes == parallel["STUDY1"].notes

    def test_users_per_shard_does_not_change_rows(self):
        coarse = scaled_user_study_spec(500, users_per_shard=500)
        fine = scaled_user_study_spec(500, users_per_shard=77)
        a, _ = run_experiments(
            ["STUDY1"], seed=0, jobs=1, overrides={"STUDY1": coarse}
        )
        b, _ = run_experiments(
            ["STUDY1"], seed=0, jobs=2, overrides={"STUDY1": fine}
        )
        assert a["STUDY1"].rows == b["STUDY1"].rows

    def test_aggregate_partition_invariance_on_real_engine(self):
        whole = run_user_block(11, 0, 120)
        parts = [
            run_user_block(11, 0, 50),
            run_user_block(11, 50, 30),
            run_user_block(11, 80, 40),
        ]
        forward = reduce(lambda x, y: x.merge(y), parts)
        backward = reduce(lambda x, y: x.merge(y), reversed(parts))
        assert snapshot_bytes(forward) == snapshot_bytes(whole)
        assert snapshot_bytes(backward) == snapshot_bytes(whole)


class TestAggregateValidation:
    def test_segment_mismatch_rejected(self):
        a = StudyAggregate(("x", "y"))
        b = StudyAggregate(("x",))
        with pytest.raises(ValueError):
            a.merge(b)
        outcome = UserOutcome(True, 1.0, 2, [0.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            a.add_outcome(outcome)

    def test_finalize_checks_user_count(self):
        aggregate = run_user_block(0, 0, 10)
        with pytest.raises(ValueError):
            finalize_scaled_study([aggregate], n_users=11)

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            StudyAggregate(())
        with pytest.raises(ValueError):
            run_scaled_user_study(n_users=0)

    def test_population_rows_carry_quantiles(self):
        result = run_scaled_user_study(
            seed=0, n_users=200, battery="smoke", users_per_shard=100
        )
        p50 = result.column("p50_trial_s")
        p90 = result.column("p90_trial_s")
        assert all(a <= b for a, b in zip(p50, p90))
        assert all(0.0 <= e <= 1.0 for e in result.column("error_rate"))
