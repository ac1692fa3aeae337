"""Unit and property tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import PeriodicTask, Process, SimulationError, Simulator


class TestScheduling:
    def test_schedule_runs_at_time(self, sim):
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run_until(1.0)
        assert fired == [0.5]

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run_until(2.5)
        assert sim.now == 2.5

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(0.3, lambda: order.append("b"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.7, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self, sim):
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_time_ties(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=1)
        sim.schedule(1.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_schedule_at_past_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_run_until_past_rejected(self, sim):
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(0.5, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_event_scheduled_during_event_runs(self, sim):
        fired = []

        def outer():
            sim.schedule(0.5, lambda: fired.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [1.5]

    def test_events_processed_counter(self, sim):
        for _ in range(7):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_run_max_events_stops_early(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_boundary_event_at_run_until_time_runs(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run_until(1.0)
        assert fired == [1]

    def test_nested_run_until_past_the_end_keeps_the_clock(self, sim):
        """A callback's nested run past the outer end never rewinds."""
        order = []
        sim.schedule(0.1, lambda: sim.run_until(2.0))
        sim.schedule(1.5, lambda: order.append(("late", sim.now)))
        sim.run_until(1.0)
        assert sim.now == 2.0
        sim.schedule(0.0, lambda: order.append(("next", sim.now)))
        sim.run_until(3.0)
        assert order == [("late", 1.5), ("next", 2.0)]


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=7).rng.random(5)
        b = Simulator(seed=7).rng.random(5)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = Simulator(seed=7).rng.random(5)
        b = Simulator(seed=8).rng.random(5)
        assert not (a == b).all()

    def test_spawn_rng_streams_are_decorrelated(self, sim):
        a = sim.spawn_rng().random(100)
        b = sim.spawn_rng().random(100)
        assert not (a == b).all()

    def test_spawn_rng_reproducible_across_simulators(self):
        s1, s2 = Simulator(seed=3), Simulator(seed=3)
        assert (s1.spawn_rng().random(10) == s2.spawn_rng().random(10)).all()


class TestProcess:
    def test_generator_process_ticks(self, sim):
        ticks = []

        def body():
            for _ in range(3):
                ticks.append(sim.now)
                yield 1.0

        Process(sim, body())
        sim.run()
        assert ticks == [0.0, 1.0, 2.0]

    def test_process_start_delay(self, sim):
        ticks = []

        def body():
            ticks.append(sim.now)
            yield 0.5
            ticks.append(sim.now)

        Process(sim, body(), start_delay=2.0)
        sim.run()
        assert ticks == [2.0, 2.5]

    def test_kill_stops_process(self, sim):
        ticks = []

        def body():
            while True:
                ticks.append(sim.now)
                yield 1.0

        process = Process(sim, body())
        sim.run_until(2.5)
        process.kill()
        sim.run_until(10.0)
        assert ticks == [0.0, 1.0, 2.0]
        assert not process.alive

    def test_process_finishes_naturally(self, sim):
        def body():
            yield 1.0

        process = Process(sim, body())
        sim.run()
        assert not process.alive

    def test_invalid_yield_raises(self, sim):
        def body():
            yield -1.0

        Process(sim, body())
        with pytest.raises(SimulationError):
            sim.run()


class TestPeriodicTask:
    def test_fires_at_period(self, sim):
        ticks = []
        PeriodicTask(sim, 0.25, lambda: ticks.append(sim.now))
        sim.run_until(1.0)
        assert ticks == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_phase_controls_first_fire(self, sim):
        ticks = []
        PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now), phase=0.0)
        sim.run_until(2.0)
        assert ticks == pytest.approx([0.0, 1.0, 2.0])

    def test_stop_prevents_future_fires(self, sim):
        ticks = []
        task = PeriodicTask(sim, 0.5, lambda: ticks.append(sim.now))
        sim.run_until(1.0)
        task.stop()
        sim.run_until(5.0)
        assert len(ticks) == 2
        assert not task.running

    def test_zero_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)

    def test_jitter_keeps_firing(self, sim):
        ticks = []
        PeriodicTask(sim, 0.1, lambda: ticks.append(sim.now), jitter=0.01)
        sim.run_until(2.0)
        # Roughly 20 fires expected; jitter must not stall or explode.
        assert 10 <= len(ticks) <= 30

    def test_stop_from_within_callback(self, sim):
        ticks = []
        task_holder = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                task_holder["t"].stop()

        task_holder["t"] = PeriodicTask(sim, 0.1, tick)
        sim.run_until(10.0)
        assert len(ticks) == 3


class TestMisuseErgonomics:
    """Kernel misuse raises SimulationError with actionable messages."""

    def test_rerunning_finished_simulator_rejected(self, sim):
        sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.finished
        with pytest.raises(SimulationError, match="already ran to completion"):
            sim.run()

    def test_rerun_error_message_is_actionable(self, sim):
        sim.run()
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "schedule new events" in message
        assert "fresh Simulator" in message

    def test_scheduling_after_finish_allows_another_run(self, sim):
        sim.schedule(0.1, lambda: None)
        sim.run()
        fired = []
        sim.schedule(0.2, lambda: fired.append(sim.now))
        assert not sim.finished
        sim.run()
        assert fired == [pytest.approx(0.3)]

    def test_cancelled_leftovers_grant_one_grace_run(self, sim):
        """Scheduling (then cancelling) after finish resets the guard for
        one no-op run; the run after that raises again."""
        sim.schedule(0.1, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None).cancel()
        sim.run()  # drains the cancelled event silently
        with pytest.raises(SimulationError, match="already ran"):
            sim.run()

    def test_max_events_early_return_is_not_finished(self, sim):
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run(max_events=2)
        assert not sim.finished
        sim.run()  # resumes without complaint
        assert sim.finished

    def test_past_delay_message_is_actionable(self, sim):
        with pytest.raises(SimulationError) as excinfo:
            sim.schedule(-0.5, lambda: None)
        message = str(excinfo.value)
        assert "only moves forward" in message
        assert "delay >= 0" in message

    def test_past_absolute_time_message_is_actionable(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SimulationError) as excinfo:
            sim.schedule_at(4.0, lambda: None)
        message = str(excinfo.value)
        assert "never rewinds" in message
        assert "fresh Simulator" in message


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_events_execute_in_nondecreasing_time_order(delays):
    """However events are scheduled, execution times never decrease."""
    sim = Simulator(seed=0)
    seen = []
    for delay in delays:
        sim.schedule(delay, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@given(
    periods=st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=5,
    ),
    horizon=st.floats(min_value=0.5, max_value=10.0),
)
@settings(max_examples=30, deadline=None)
def test_property_periodic_task_fire_counts(periods, horizon):
    """Each task fires floor(horizon/period) times (no jitter)."""
    sim = Simulator(seed=0)
    counters = [0] * len(periods)

    def make_cb(i):
        def cb():
            counters[i] += 1
        return cb

    for i, period in enumerate(periods):
        PeriodicTask(sim, period, make_cb(i))
    sim.run_until(horizon)
    for period, count in zip(periods, counters):
        expected = int(horizon / period + 1e-9)
        assert abs(count - expected) <= 1


class TestRunWhileTimeBoundary:
    """Regression: run_while must never execute an event past max_time.

    The old implementation peeked ``self._queue[0]`` without skipping
    cancelled events; a cancelled head with ``time <= max_time`` let
    ``step()`` execute the next *live* event even when it lay past the
    deadline.
    """

    def test_cancelled_head_does_not_leak_late_event(self):
        sim = Simulator(seed=0)
        fired = []
        early = sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(5.0, lambda: fired.append("late"))
        early.cancel()
        sim.run_while(lambda: True, max_time=2.0)
        assert fired == []
        assert sim.now == 2.0

    def test_many_cancelled_heads_before_late_event(self):
        sim = Simulator(seed=0)
        fired = []
        for delay in (0.1, 0.2, 0.3):
            sim.schedule(delay, lambda: fired.append("cancelled")).cancel()
        sim.schedule(10.0, lambda: fired.append("late"))
        sim.run_while(lambda: True, max_time=1.0)
        assert fired == []
        assert sim.now == 1.0

    def test_live_events_within_deadline_still_run(self):
        sim = Simulator(seed=0)
        times = []
        sim.schedule(0.25, lambda: times.append(sim.now)).cancel()
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run_while(lambda: True, max_time=1.0)
        assert times == [0.5]
        assert sim.now == 1.0

    def test_condition_stop_leaves_clock_at_last_event(self):
        sim = Simulator(seed=0)
        count = {"n": 0}

        def bump():
            count["n"] += 1
            sim.schedule(0.1, bump)

        sim.schedule(0.1, bump)
        sim.run_while(lambda: count["n"] < 3, max_time=100.0)
        assert count["n"] == 3
        assert sim.now == pytest.approx(0.3)

    @given(
        live=st.lists(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        cancelled=st.lists(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            max_size=8,
        ),
        max_time=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_never_runs_past_max_time(self, live, cancelled, max_time):
        sim = Simulator(seed=0)
        executed = []
        for delay in live:
            sim.schedule(delay, lambda d=delay: executed.append(d))
        for delay in cancelled:
            sim.schedule(delay, lambda: executed.append("boom")).cancel()
        sim.run_while(lambda: True, max_time=max_time)
        assert all(t <= max_time for t in executed)
        assert sorted(d for d in live if d <= max_time) == sorted(executed)


class TestEventSlots:
    """The Event restructure (PR 4): __slots__, tuple heap keys."""

    def test_no_instance_dict(self):
        sim = Simulator(seed=0)
        event = sim.schedule(1.0, lambda: None)
        assert not hasattr(event, "__dict__")

    def test_ordering_key(self):
        sim = Simulator(seed=0)
        early = sim.schedule(1.0, lambda: None)
        late = sim.schedule(2.0, lambda: None)
        urgent = sim.schedule(2.0, lambda: None, priority=-1)
        assert early < late
        assert urgent < late  # same time, lower priority value wins
        assert late < sim.schedule(2.0, lambda: None)  # FIFO via seq

    def test_cancel_is_idempotent_in_the_corpse_count(self):
        sim = Simulator(seed=0)
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert sim._cancelled_in_queue == 1

    def test_repr_mentions_cancelled(self):
        sim = Simulator(seed=0)
        event = sim.schedule(1.0, lambda: None)
        assert "cancelled" not in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)

    def test_cancel_after_execution_does_not_corrupt_count(self):
        """The accounting hook detaches when an event leaves the queue, so
        a late cancel() cannot drive the corpse count negative."""
        sim = Simulator(seed=0)
        fired = sim.schedule(0.1, lambda: None)
        sim.run()
        fired.cancel()
        assert sim._cancelled_in_queue == 0


class TestQueueCompaction:
    def test_compaction_purges_corpses(self):
        sim = Simulator(seed=0)
        keep = [sim.schedule(1.0 + i, lambda: None) for i in range(40)]
        kill = [sim.schedule(2.0 + i, lambda: None) for i in range(200)]
        for event in kill:
            event.cancel()
        # The next push sees 200 corpses > max(64, half the queue) and
        # rebuilds the heap.
        keep.append(sim.schedule(500.0, lambda: None))
        assert sim._cancelled_in_queue == 0
        assert len(sim._queue) == len(keep)

    def test_small_queues_never_compact(self):
        sim = Simulator(seed=0)
        for i in range(30):
            sim.schedule(1.0 + i, lambda: None).cancel()
        sim.schedule(100.0, lambda: None)
        # 30 corpses is under the 64 floor: nothing purged yet.
        assert sim._cancelled_in_queue == 30
        assert len(sim._queue) == 31

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=150,
            max_size=300,
        ),
        cancel_stride=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_execution_order_survives_compaction(
        self, delays, cancel_stride
    ):
        """Compaction keeps the (time, priority, seq) keys, so the
        surviving events run in exactly the order they would have without
        the purge: sorted by time, FIFO among ties."""
        sim = Simulator(seed=0)
        executed = []
        events = [
            sim.schedule(delay, lambda i=i: executed.append(i))
            for i, delay in enumerate(delays)
        ]
        survivors = []
        for i, event in enumerate(events):
            if i % (cancel_stride + 1) != 0:
                event.cancel()
            else:
                survivors.append(i)
        sim.schedule(1e9, lambda: None)  # push that may trigger compaction
        sim.run()
        expected = [
            i for _, i in sorted((delays[i], i) for i in survivors)
        ]
        assert executed == expected

    def test_cancel_churn_scenario_matches_uncompacted_run(self, monkeypatch):
        """The same periodic-task churn with compaction disabled produces
        the identical event trace — the purge is invisible."""
        import repro.sim.kernel as kernel

        def run_churn():
            sim = Simulator(seed=3)
            ticks = []
            for generation in range(6):
                tasks = [
                    PeriodicTask(
                        sim,
                        0.01 + i * 1e-4,
                        lambda g=generation: ticks.append((g, sim.now)),
                    )
                    for i in range(40)
                ]
                sim.run_until(sim.now + 0.05)
                for task in tasks:
                    task.stop()
            sim.run()
            return ticks, sim.events_processed

        baseline = run_churn()  # compaction active (default constants)
        monkeypatch.setattr(kernel, "_COMPACT_MIN_CANCELLED", 10**9)
        assert run_churn() == baseline


class TestSpawnPooling:
    def test_spawned_streams_match_unpooled_seedsequence(self):
        """Pool refills use SeedSequence.spawn(n), which numpy guarantees
        yields the same children as n separate spawn(1) calls — so every
        generator the simulator hands out is bit-identical to the
        pre-pooling implementation."""
        import numpy as np

        sim = Simulator(seed=123)
        reference = np.random.SeedSequence(123).spawn(20)
        # Child 0 seeds sim.rng; spawn_rng() serves 1, 2, ...
        rngs = [sim.rng] + [sim.spawn_rng() for _ in range(19)]
        for child, rng in zip(reference, rngs):
            expected = np.random.default_rng(child)
            assert (
                rng.bit_generator.state == expected.bit_generator.state
            )

    def test_pool_refills_beyond_one_batch(self):
        import numpy as np

        sim = Simulator(seed=7)
        reference = np.random.SeedSequence(7).spawn(40)
        for child in reference[1:]:  # 0 went to sim.rng
            rng = sim.spawn_rng()
            expected = np.random.default_rng(child)
            assert rng.bit_generator.state == expected.bit_generator.state


class TestJitterBatching:
    def test_jitter_ticks_match_scalar_draws(self):
        """Pre-drawn normal(size=n) jitter must replay the exact tick
        times of per-tick scalar draws from the same spawned stream."""
        import numpy as np

        sim = Simulator(seed=11)
        times = []
        PeriodicTask(sim, 0.1, lambda: times.append(sim.now), jitter=0.01)
        sim.run(max_events=100)

        # Reference: the task's private generator is the simulator's
        # second spawned child (sim.rng took the first).
        rng = np.random.default_rng(np.random.SeedSequence(11).spawn(2)[1])
        expected = [0.1]  # first fire: phase defaults to one clean period
        clock = 0.1
        for _ in range(99):
            delay = max(0.1 + rng.normal(0.0, 0.01), 0.1 * 0.1)
            clock += delay
            expected.append(clock)
        assert times == expected

    def test_jitter_free_task_draws_nothing(self):
        sim = Simulator(seed=0)
        state_before = sim.rng.bit_generator.state
        count = [0]

        def bump():
            count[0] += 1

        task = PeriodicTask(sim, 0.1, bump)
        sim.run(max_events=50)
        task.stop()
        assert count[0] == 50
        assert sim.rng.bit_generator.state == state_before


class TestProcessPendingFix:
    def test_pending_assigned_exactly_once(self):
        """PR 4 satellite: Process.__init__ used to assign self._pending
        twice (a leftover None pre-assignment); the surviving single
        assignment must hold the start event so kill() can cancel it."""
        sim = Simulator(seed=0)

        def body():
            yield 1.0

        process = Process(sim, body(), start_delay=5.0)
        assert process._pending is not None
        assert process._pending.time == 5.0
        process.kill()
        assert process._pending.cancelled
        sim.run()
        assert not process.alive
