"""The kernel's single dispatch loop against a reference scheduler.

Every run method (``step``, ``run``, ``run_until``, ``run_while``)
executes events through one loop, and a :class:`PeriodicTask`'s event is
re-armed in place after its callback instead of being rescheduled as a
fresh event.  The reference below is the straightforward scheduler that
design replaced: one heap, one new event per periodic invocation, no
compaction.  Random programs of one-shot events, jitter-free and
jittered periodic tasks, cancels, self-stopping tasks, same-timestamp
stops, cancel churn and interleaved run calls must produce the same
``(time, label)`` trace on both.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (
    PeriodicTask,
    Process,
    SimulationError,
    Simulator,
)


# ---------------------------------------------------------------------------
# the reference scheduler
# ---------------------------------------------------------------------------
class _RefEvent:
    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class RefSim:
    """Heap of ``(time, priority, seq, event)``; every event is new."""

    def __init__(self, seed: int) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._queue: list = []
        self._seq = itertools.count()
        self._finished = False
        self._seed_seq = np.random.SeedSequence(seed)
        self._seed_seq.spawn(1)  # the simulator-wide ``rng``

    def spawn_rng(self) -> np.random.Generator:
        return np.random.default_rng(self._seed_seq.spawn(1)[0])

    def schedule(self, delay, callback, priority=0) -> _RefEvent:
        if not delay >= 0:
            raise SimulationError(f"bad delay {delay}")
        event = _RefEvent(self.now + delay, callback)
        heapq.heappush(
            self._queue, (event.time, priority, next(self._seq), event)
        )
        self._finished = False
        return event

    def _live_head(self) -> Optional[tuple]:
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None

    def _execute(self) -> None:
        event = heapq.heappop(self._queue)[3]
        self.now = event.time
        self.events_processed += 1
        event.callback()

    def step(self) -> bool:
        if self._live_head() is None:
            return False
        self._execute()
        return True

    def run_until(self, end_time: float) -> None:
        if not end_time >= self.now:
            raise SimulationError("run_until before now")
        while (head := self._live_head()) is not None and head[0] <= end_time:
            self._execute()
        self.now = end_time

    def run(self, max_events: Optional[int] = None) -> None:
        if self._finished and self._live_head() is None:
            raise SimulationError("already finished")
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                return
        self._finished = True

    def run_while(self, condition, max_time: float) -> None:
        while condition():
            head = self._live_head()
            if head is None or head[0] > max_time:
                break
            self._execute()
        if condition():
            self.now = max(self.now, max_time)


class RefPeriodic:
    """A periodic task that schedules a new event per invocation."""

    def __init__(self, sim: RefSim, period, callback, phase=None, jitter=0.0):
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = sim.spawn_rng() if jitter > 0 else None
        self._pool: Optional[np.ndarray] = None
        self._index = 0
        self._running = True
        first = self._period if phase is None else float(phase)
        self._event: Optional[_RefEvent] = sim.schedule(first, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _next_delay(self) -> float:
        if self._rng is None:
            return self._period
        if self._pool is None or self._index >= len(self._pool):
            self._pool = self._rng.normal(0.0, self._jitter, size=64)
            self._index = 0
        delay = self._period + float(self._pool[self._index])
        self._index += 1
        return max(delay, self._period * 0.1)

    def _tick(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:
            self._event = self._sim.schedule(self._next_delay(), self._tick)


# ---------------------------------------------------------------------------
# random programs
# ---------------------------------------------------------------------------
#: Binary-fraction times keep sums exact, so timestamps tie often.
grid = st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0])
periods = st.sampled_from([0.125, 0.25, 0.375, 0.5])

ops = st.one_of(
    st.tuples(st.just("oneshot"), grid, st.integers(0, 1)),
    st.tuples(
        st.just("periodic"), periods, st.none() | grid,
        st.sampled_from([0.0, 0.0, 0.02]), st.none() | st.integers(1, 6),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("stop"), st.integers(0, 30)),
    st.tuples(st.just("stopper"), grid, st.integers(0, 30)),
    st.tuples(st.just("churn"), st.integers(70, 160)),
    st.tuples(st.just("step"), st.integers(1, 4)),
    st.tuples(st.just("run_until"), grid),
    st.tuples(st.just("run_while"), grid, st.integers(0, 12)),
    st.tuples(st.just("run"), st.integers(1, 20)),
    st.tuples(st.just("process"), grid, st.integers(1, 4)),
)


def play(program, sim, periodic) -> list:
    """Apply ``program`` to a simulator; the trace of what ran when."""
    trace: list = []
    tasks: list = []
    events: list = []

    def mark(label) -> Callable[[], None]:
        return lambda: trace.append((sim.now, label))

    def self_stopping(label, holder, fires) -> Callable[[], None]:
        count = [0]

        def callback() -> None:
            trace.append((sim.now, label))
            count[0] += 1
            if count[0] == fires:
                holder[0].stop()

        return callback

    def stopper(label, task) -> Callable[[], None]:
        def callback() -> None:
            trace.append((sim.now, label))
            task.stop()

        return callback

    def body(label, delays):
        for delay in delays:
            trace.append((sim.now, label))
            yield delay

    for number, op in enumerate(program):
        kind = op[0]
        label = f"{kind}{number}"
        try:
            if kind == "oneshot":
                events.append(sim.schedule(op[1], mark(label), priority=op[2]))
            elif kind == "periodic":
                _, period, phase, jitter, fires = op
                holder: list = [None]
                callback = (
                    mark(label) if fires is None
                    else self_stopping(label, holder, fires)
                )
                holder[0] = periodic(sim, period, callback, phase, jitter)
                tasks.append(holder[0])
            elif kind == "cancel" and events:
                events[op[1] % len(events)].cancel()
            elif kind == "stop" and tasks:
                tasks[op[1] % len(tasks)].stop()
            elif kind == "stopper" and tasks:
                task = tasks[op[2] % len(tasks)]
                events.append(sim.schedule(op[1], stopper(label, task)))
            elif kind == "churn":
                churned = [
                    periodic(sim, 0.25 + i * 1e-3, mark(label), None, 0.0)
                    for i in range(op[1])
                ]
                for task in churned:
                    task.stop()
            elif kind == "step":
                for _ in range(op[1]):
                    trace.append(("step", sim.step()))
            elif kind == "run_until":
                sim.run_until(sim.now + op[1])
            elif kind == "run_while":
                limit = len(trace) + op[2]
                sim.run_while(lambda: len(trace) < limit, sim.now + op[1])
            elif kind == "run":
                sim.run(max_events=op[1])
            elif kind == "process":
                Process(sim, body(label, [op[1]] * op[2]))
        except SimulationError:
            trace.append(("error", label))
        trace.append(("now", sim.now))
    trace.append(("events", sim.events_processed))
    return trace


def _real_periodic(sim, period, callback, phase, jitter):
    return PeriodicTask(sim, period, callback, phase=phase, jitter=jitter)


def _ref_periodic(sim, period, callback, phase, jitter):
    return RefPeriodic(sim, period, callback, phase=phase, jitter=jitter)


class TestAgainstReference:
    @given(seed=st.integers(0, 2**16), program=st.lists(ops, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_same_trace_as_reference(self, seed, program):
        real = play(program, Simulator(seed=seed), _real_periodic)
        reference = play(program, RefSim(seed), _ref_periodic)
        assert real == reference

    def test_churn_program_compacts_and_matches(self):
        """A fixed program whose churn must trigger compaction."""
        program = [
            ("periodic", 0.125, None, 0.0, None),
            ("periodic", 0.25, 0.0, 0.02, None),
            ("oneshot", 0.25, 1),
            ("run_until", 0.5),
            ("churn", 150),
            ("stopper", 0.125, 0),
            ("periodic", 0.375, None, 0.0, 3),
            ("step", 3),
            ("churn", 100),
            ("run_while", 1.0, 7),
            ("run", 9),
            ("run_until", 1.0),
        ]
        sim = Simulator(seed=5)
        compactions = []
        original = sim._compact

        def counted() -> None:
            compactions.append(len(sim._queue))
            original()

        sim._compact = counted  # type: ignore[method-assign]
        real = play(program, sim, _real_periodic)
        assert compactions, "the churn never triggered a compaction"
        assert real == play(program, RefSim(5), _ref_periodic)


class TestInPlaceRearm:
    def test_periodic_task_keeps_one_event(self, sim):
        task = PeriodicTask(sim, 0.1, lambda: None)
        event = task._event
        sim.run_until(1.05)
        assert task._event is event
        assert event.time == pytest.approx(1.1)
        assert sim.events_processed == 10

    def test_jittered_task_keeps_one_event(self, sim):
        task = PeriodicTask(sim, 0.1, lambda: None, jitter=0.01)
        event = task._event
        sim.run_until(2.0)
        assert task._event is event
        assert sim.events_processed >= 15

    def test_event_invokes_the_callback_passed_in(self, sim):
        def callback() -> None:
            pass

        task = PeriodicTask(sim, 0.1, callback)
        assert task._event.callback is callback

    def test_cancel_during_own_callback_still_rearms(self, sim):
        """Cancelling the dispatched event (not stopping the task) does
        not stop the task: the old reschedule made a fresh event."""
        fired = []
        holder: list = []

        def callback() -> None:
            fired.append(sim.now)
            holder[0]._event.cancel()

        holder.append(PeriodicTask(sim, 0.25, callback))
        sim.run_until(1.0)
        assert fired == [0.25, 0.5, 0.75, 1.0]

    def test_task_stopped_between_runs_fires_no_more(self, sim):
        steps = []
        task = PeriodicTask(sim, 0.25, lambda: steps.append(sim.now))
        event = task._event
        sim.run_until(1.0)
        assert task._event is event
        assert steps == [0.25, 0.5, 0.75, 1.0]
        task.stop()
        sim.run_until(2.0)
        assert len(steps) == 4

    def test_stopped_task_event_is_not_requeued(self, sim):
        task = PeriodicTask(sim, 0.1, lambda: task.stop())
        sim.run_until(1.0)
        assert sim.events_processed == 1
        assert not sim._queue


# ---------------------------------------------------------------------------
# NaN inputs
# ---------------------------------------------------------------------------
class _Watchdog:
    """A periodic task that raises once it has fired ``limit`` times, so
    a loop that ignores its deadline fails fast instead of hanging."""

    def __init__(self, sim: Simulator, limit: int = 10_000) -> None:
        self.fires = 0
        self.limit = limit
        self.task = PeriodicTask(sim, 0.01, self._tick)

    def _tick(self) -> None:
        self.fires += 1
        if self.fires >= self.limit:
            raise AssertionError("the kernel ran past any sane deadline")


class TestNaNRejected:
    def test_run_until_nan(self, sim):
        watchdog = _Watchdog(sim)
        with pytest.raises(SimulationError, match="nan"):
            sim.run_until(math.nan)
        assert watchdog.fires == 0
        assert sim.now == 0.0

    def test_run_while_nan_deadline(self, sim):
        watchdog = _Watchdog(sim)
        with pytest.raises(SimulationError, match="nan"):
            sim.run_while(lambda: True, max_time=math.nan)
        assert watchdog.fires == 0

    def test_schedule_nan_delay(self, sim):
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule(math.nan, lambda: None)
        assert not sim._queue

    def test_schedule_at_nan(self, sim):
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule_at(math.nan, lambda: None)

    def test_nan_never_jumps_the_queue(self, sim):
        order = []
        sim.schedule(0.2, lambda: order.append("0.2"))
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: order.append("nan"))
        sim.run()
        assert order == ["0.2"]

    def test_nan_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, math.nan, lambda: None)

    def test_nan_phase_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.1, lambda: None, phase=math.nan)

    def test_process_yielding_nan_is_killed(self, sim):
        def body():
            yield math.nan

        process = Process(sim, body())
        with pytest.raises(SimulationError, match="invalid delay"):
            sim.run()
        assert not process.alive

    def test_infinite_deadlines_still_accepted(self, sim):
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run_while(lambda: not fired, max_time=math.inf)
        assert fired == [0.5]
