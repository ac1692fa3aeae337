"""Tests for FLEET's device model (repro.core.batch).

A :class:`DeviceBatch` is a block of :class:`ScalarDeviceEngine`s.  A
device in a block must compute exactly what the same device computes
alone — same RNG streams, same state machine — across every regime the
fleet can hit: mixed personas and gloves, corrupting surfaces, active
fault windows, and observe=On.  FLEET's shard invariance rests on it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    DeviceBatch,
    ScalarDeviceEngine,
    derive_device_spec,
    device_stream,
)
from repro.obs.recorder import Recorder, use_recorder
from repro.sim.kernel import PeriodicTask, Simulator

TICK = 1.0 / 50.0


def run_both(seed, indices, ticks, fault_every=0, duration_hint_s=2.0):
    """Step a block and lone engines of its devices over one tick grid."""
    specs = [
        derive_device_spec(
            seed,
            index,
            fault_every=fault_every,
            duration_hint_s=duration_hint_s,
        )
        for index in indices
    ]
    batch = DeviceBatch(specs, seed=seed)
    scalars = [ScalarDeviceEngine(spec, seed=seed) for spec in specs]
    now = 0.0
    for _ in range(ticks):
        now += TICK
        batch.step(now)
        for engine in scalars:
            engine.step(now)
    return batch, scalars


def assert_bit_equal(batch, scalars):
    for row, engine in enumerate(scalars):
        assert batch.state(row) == engine.state(), (
            f"state mismatch on device {batch.specs[row].index}"
        )
        assert batch.counters(row) == engine.counters(), (
            f"counter mismatch on device {batch.specs[row].index}"
        )


class TestScalarVsBatchedEquality:
    """A device in a block equals the same device stepped alone."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_devices=st.integers(1, 12),
        ticks=st.integers(1, 120),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_fleet_bit_equality(self, seed, n_devices, ticks):
        """Mixed personas/gloves/surfaces, no faults."""
        batch, scalars = run_both(seed, range(n_devices), ticks)
        assert_bit_equal(batch, scalars)

    @given(
        seed=st.integers(0, 2**31 - 1),
        ticks=st.integers(50, 200),
        fault_every=st.integers(1, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_faulted_fleet_bit_equality(self, seed, ticks, fault_every):
        """Active fault windows: glitch/stuck/occlusion/dropout."""
        batch, scalars = run_both(
            seed,
            range(8),
            ticks,
            fault_every=fault_every,
            duration_hint_s=ticks * TICK,
        )
        assert_bit_equal(batch, scalars)
        faulted = [s for s in batch.specs if s.fault_windows]
        assert faulted, "fault_every <= 3 over 8 devices must fault some"

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_observed_fleet_bit_equality(self, seed):
        """observe=On must not perturb a single RNG draw or state bit."""
        with use_recorder(Recorder()):
            observed, _ = run_both(seed, range(6), 80, fault_every=2)
        plain, scalars = run_both(seed, range(6), 80, fault_every=2)
        assert_bit_equal(observed, scalars)
        for row in range(6):
            assert observed.state(row) == plain.state(row)

    @given(
        seed=st.integers(0, 2**31 - 1),
        offset=st.integers(0, 10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_row_position_is_irrelevant(self, seed, offset):
        """A device's trajectory depends on its index, not its row."""
        lone, _ = run_both(seed, [offset + 3], 60)
        packed, _ = run_both(seed, range(offset, offset + 6), 60)
        assert packed.state(3) == lone.state(0)
        assert packed.counters(3) == lone.counters(0)


class TestRngStreamPins:
    """Pin the numpy fact block draws rely on: ``n`` draws in one call are
    stream-identical to ``n`` scalar draws (``PeriodicTask``'s jitter pool
    depends on it)."""

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_uniform_batch_equals_scalar_draws(self, seed, n):
        a = device_stream(seed, 0, 3).uniform(0.1, 2.9, size=n)
        b = device_stream(seed, 0, 3)
        assert [float(x) for x in a] == [b.uniform(0.1, 2.9) for _ in range(n)]

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_normal_batch_equals_scalar_draws(self, seed, n):
        a = device_stream(seed, 1, 3).normal(0.0, 0.4, size=n)
        b = device_stream(seed, 1, 3)
        assert [float(x) for x in a] == [b.normal(0.0, 0.4) for _ in range(n)]

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_random_batch_equals_scalar_draws(self, seed, n):
        a = device_stream(seed, 2, 2).random(size=n)
        b = device_stream(seed, 2, 2)
        assert [float(x) for x in a] == [b.random() for _ in range(n)]

    def test_streams_are_purpose_disjoint(self):
        draws = {
            purpose: float(device_stream(3, 5, purpose).random())
            for purpose in range(8)
        }
        assert len(set(draws.values())) == len(draws)


class TestDeviceBatchShape:
    def test_result_rows_are_plain_scalars(self):
        batch, _ = run_both(11, range(4), 30, fault_every=2)
        rows = batch.result_rows()
        assert len(rows) == 4
        for row in rows:
            assert len(row) == 18
            for cell in row:
                assert isinstance(cell, (int, str)), cell

    def test_step_returns_device_count(self):
        specs = [derive_device_spec(0, i) for i in range(5)]
        batch = DeviceBatch(specs, seed=0)
        assert batch.step(TICK) == 5

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            DeviceBatch([], seed=0)


class TestDevicebatchSharder:
    """Shard-layout invariance of the FLEET decomposition."""

    def test_block_layout_cannot_change_rows(self):
        from repro.experiments.fleet import run_device_block

        whole = run_device_block(5, 0, 24, duration_s=1.0)
        split = [
            row
            for start, count in ((0, 7), (7, 7), (14, 7), (21, 3))
            for row in run_device_block(5, start, count, duration_s=1.0)
        ]
        assert split == whole

    def test_jobs_do_not_change_fleet_bytes(self, tmp_path):
        from repro.runner.pool import run_experiments
        from repro.runner.registry import ExperimentSpec

        spec = ExperimentSpec(
            experiment_id="FLEET",
            entry="repro.experiments.fleet:run_fleet",
            params=(
                ("n_devices", 48),
                ("duration_s", 1.0),
                ("personas", "full"),
                ("fault_every", 8),
            ),
            sharder="userblocks",
            n_users_param="n_devices",
            user_entry="repro.experiments.fleet:run_device_block",
            aggregate_entry="repro.experiments.fleet:finalize_fleet",
            aggregate_params=(
                "n_devices",
                "duration_s",
                "personas",
                "fault_every",
            ),
            users_per_shard=16,
        )
        outputs = {}
        for jobs in (1, 3):
            csv_dir = tmp_path / f"jobs{jobs}"
            run_experiments(
                ["FLEET"],
                seed=0,
                jobs=jobs,
                csv_dir=csv_dir,
                overrides={"FLEET": spec},
            )
            outputs[jobs] = (csv_dir / "FLEET.csv").read_bytes()
        assert outputs[1] == outputs[3]

    def test_registry_fleet_matches_serial_driver(self):
        from repro.experiments.fleet import run_fleet
        from repro.runner.registry import REGISTRY
        from repro.runner.sharding import (
            execute_shard,
            make_shards,
            merge_shard_results,
        )

        spec = REGISTRY["FLEET"]
        assert spec.sharder == "userblocks"
        small = type(spec)(
            **{
                **spec.__dict__,
                "params": (
                    ("n_devices", 32),
                    ("duration_s", 1.0),
                    ("personas", "full"),
                    ("fault_every", 8),
                ),
                "users_per_shard": 8,
            }
        )
        shards = make_shards(small, seed=2)
        assert len(shards) == 4
        merged = merge_shard_results(
            small, [execute_shard(small, 2, shard) for shard in shards]
        )
        serial = run_fleet(
            seed=2, n_devices=32, duration_s=1.0, devices_per_shard=8
        )
        assert merged.rows == serial.rows
        assert merged.notes[0] == serial.notes[0]
        assert merged.notes[1] == serial.notes[1]


class TestFleetKernelDriveMatchesOracle:
    def test_kernel_tick_grid_equals_manual_grid(self):
        """FLEET's PeriodicTask fires on the accumulated ``t + period`` grid."""
        specs = [derive_device_spec(9, i, fault_every=4) for i in range(6)]
        batch = DeviceBatch(specs, seed=9)
        sim = Simulator(seed=9)
        times = []

        def step():
            times.append(sim.now)
            batch.step(sim.now)

        task = PeriodicTask(sim, TICK, step)
        sim.run_while(lambda: True, max_time=1.0)
        task.stop()
        assert batch.ticks == 49  # the tick landing on max_time won't fire
        # One kernel event per tick, whatever the block's size.
        assert sim.events_processed == batch.ticks
        now = 0.0
        for fired in times:
            now += TICK
            assert fired == now
        scalars = [ScalarDeviceEngine(spec, seed=9) for spec in specs]
        for now in times:
            for engine in scalars:
                engine.step(now)
        assert_bit_equal(batch, scalars)

    def test_pow_foldback_region_stays_scalar(self):
        """Devices that wander into fold-back match their lone engines.

        The fold-back branch of ``GP2D120.ideal_voltage`` uses ``**``;
        seeds that latch exercise it.
        """
        found = False
        for seed in range(40):
            batch, scalars = run_both(seed, range(6), 120, fault_every=2)
            assert_bit_equal(batch, scalars)
            if any(batch.counters(row)[2] > 0 for row in range(6)):
                found = True
        assert found, "no fleet latched fold-back in 40 seeds"
