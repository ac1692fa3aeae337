"""Discrete-event simulation kernel.

Every piece of the DistScroll reproduction — the sensor, the microcontroller
firmware, the displays and the simulated user — runs on top of this kernel.
The kernel owns a virtual clock and a priority queue of pending events;
nothing in the library ever consults wall-clock time, so a run with a fixed
seed is fully deterministic and reproducible.

The public surface is intentionally small:

* :class:`Simulator` — the event queue and clock.
* :class:`PeriodicTask` — a fixed-rate callback (e.g. an ADC sampling loop).

Example
-------
>>> sim = Simulator(seed=7)
>>> log = []
>>> sim.schedule(0.5, lambda: log.append(sim.now))
>>> sim.run_until(1.0)
>>> log
[0.5]
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional

import numpy as np

from repro.obs.metrics import Counter
from repro.obs.recorder import Recorder, active_recorder

__all__ = [
    "SimulationError",
    "Event",
    "Simulator",
    "PeriodicTask",
    "global_events_processed",
]

#: Process-wide count of executed events across every Simulator instance.
#: The parallel experiment runner reads this to report events/second per
#: work unit (and to prove that a cache hit recomputed nothing).
_global_event_count = 0

#: Heap entries are plain ``(time, priority, seq, event)`` tuples so that
#: ``heappush``/``heappop`` compare via the C tuple fast path instead of a
#: Python-level ``__lt__``; ``seq`` is unique, so the event object itself
#: is never compared.
_QueueEntry = tuple[float, int, int, "Event"]

#: How many SeedSequence children :meth:`Simulator.spawn_rng` pre-spawns
#: per refill.  ``SeedSequence.spawn(n)`` derives the identical children
#: (same running spawn-key counter) as ``n`` separate ``spawn(1)`` calls,
#: so batching is invisible to every consumer stream.
_SPAWN_BATCH = 16

#: Compact the queue when more than half of it is cancelled corpses (and
#: it is large enough for the rebuild to be worth the heapify).
_COMPACT_MIN_CANCELLED = 64

#: ``max_events`` of a dispatch with no event budget.
_NO_LIMIT = 1 << 62


def global_events_processed() -> int:
    """Total events executed by all simulators in this process."""
    return _global_event_count


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, ...)."""


class Event:
    """A scheduled callback.

    Events order by ``(time, priority, seq)``.  The sequence number makes the
    ordering of same-time events deterministic (FIFO within a priority),
    which matters for reproducibility.

    A ``__slots__`` class rather than a dataclass: events are the most
    allocated object in the simulation, and the heap itself holds
    ``(time, priority, seq, event)`` key tuples so event instances are
    never compared during sift operations.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "cancelled", "task",
        "_cancel_hook",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        cancel_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        #: The :class:`PeriodicTask` this event fires for; the kernel
        #: re-arms such an event in place after its callback returns.
        self.task: Optional[PeriodicTask] = None
        #: Owning simulator's dead-event accounting; detached once the
        #: event leaves the queue so late cancels cannot skew the count.
        self._cancel_hook = cancel_hook

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self._cancel_hook is not None:
                self._cancel_hook()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"seq={self.seq!r}{state})"
        )


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random generator.  Components that need
        randomness (sensor noise, tremor, bus errors) draw from
        :attr:`rng` — or from generators spawned via :meth:`spawn_rng` so
        that adding a new noise consumer does not perturb existing streams.
    start_time:
        Initial value of the clock, in seconds.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self._queue: list[_QueueEntry] = []
        self._cancelled_in_queue = 0
        self._now = float(start_time)
        self._seq = itertools.count()
        self._running = False
        self._finished = False
        self._horizon: Optional[float] = None
        self._seed_seq = np.random.SeedSequence(seed)
        self._spawn_pool: list[np.random.SeedSequence] = []
        self.rng: np.random.Generator = np.random.default_rng(
            self._spawn_child()
        )
        self._event_count = 0
        # Observability binding happens once, at construction: when a
        # recorder is active we cache the instruments themselves, when
        # not (the default) we cache None so the hot loop pays only an
        # attribute load + identity check per event.
        self._obs_recorder: Optional[Recorder] = active_recorder()
        self._obs_events: Optional[Counter] = (
            self._obs_recorder.metrics.counter("kernel.events.dispatched")
            if self._obs_recorder is not None
            else None
        )

    # ------------------------------------------------------------------
    # clock and RNG
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def horizon(self) -> Optional[float]:
        """End time of the :meth:`run_until` window now dispatching.

        ``None`` outside a window and under :meth:`run`, :meth:`run_while`
        and :meth:`step`, whose end is not a time known in advance.  Every
        run method saves the value on entry and restores it on exit, so a
        run nested inside a callback never clobbers its caller's horizon.
        A periodic task may rely on it: each of its events on its own
        ``t + period`` grid up to the horizon runs before the window
        returns, unless the task stops or a callback raises.
        """
        return self._horizon

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for benchmarks/tracing)."""
        return self._event_count

    @property
    def finished(self) -> bool:
        """Whether :meth:`run` drained the queue (resets on new events)."""
        return self._finished

    def _spawn_child(self) -> np.random.SeedSequence:
        """Next child seed, served from a pre-spawned pool.

        ``SeedSequence.spawn`` threads a running counter into each child's
        spawn key, so ``spawn(n)`` yields exactly the children that ``n``
        single spawns would — pooling cuts the per-call spawn overhead in
        hot construction paths (every board builds ~8 components) without
        perturbing any stream.
        """
        if not self._spawn_pool:
            # Reversed so list.pop() serves children in spawn order.
            self._spawn_pool = self._seed_seq.spawn(_SPAWN_BATCH)[::-1]
        return self._spawn_pool.pop()

    def spawn_rng(self) -> np.random.Generator:
        """Return an independent random generator.

        Each call derives a child stream from the simulator's seed sequence,
        so separate components get decorrelated but reproducible noise.
        """
        return np.random.default_rng(self._spawn_child())

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may :meth:`Event.cancel`.
        """
        if not delay >= 0:
            if math.isnan(delay):
                raise SimulationError(
                    "cannot schedule with a NaN delay: it orders before "
                    "every other event and its time never compares"
                )
            raise SimulationError(
                f"cannot schedule in the past (delay={delay}): the simulated "
                f"clock is at {self._now} and only moves forward — use a "
                "delay >= 0, or schedule_at() with a future absolute time"
            )
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, self._note_cancelled)
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._finished = False
        if (
            self._cancelled_in_queue > _COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if math.isnan(time):
            raise SimulationError("cannot schedule at a NaN time")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}: the clock already reached "
                f"{self._now} and never rewinds — pick a time >= now, or "
                "create a fresh Simulator for a new run"
            )
        return self.schedule(time - self._now, callback, priority)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Dead-event accounting hook handed to every scheduled event."""
        self._cancelled_in_queue += 1

    def _discard(self, event: Event) -> None:
        """Bookkeeping for an event leaving the queue without running."""
        event._cancel_hook = None
        self._cancelled_in_queue -= 1

    def _compact(self) -> None:
        """Purge cancelled corpses and re-heapify the survivors.

        Long-lived runs that churn :meth:`PeriodicTask.stop` or
        :meth:`Event.cancel` otherwise accumulate dead entries that every
        ``heappush`` must sift past.  Rebuilding keeps the same
        ``(time, priority, seq)`` keys, so execution order is untouched.
        The rebuild is in place: :meth:`_dispatch` holds the queue list
        across the callbacks that trigger it.
        """
        queue = self._queue
        for entry in queue:
            if entry[3].cancelled:
                entry[3]._cancel_hook = None
        before = len(queue)
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapq.heapify(queue)
        self._cancelled_in_queue = 0
        if self._obs_recorder is not None:
            self._obs_recorder.counter("kernel.compactions")
            self._obs_recorder.observe(
                "kernel.compaction.purged",
                float(before - len(queue)),
                low=1.0,
                high=1e6,
            )

    def _dispatch(
        self,
        end_time: float,
        max_events: int,
        condition: Optional[Callable[[], bool]],
        horizon: Optional[float] = None,
    ) -> int:
        """The event loop: every event of every run method executes here.

        Runs live events in ``(time, priority, seq)`` order, at most
        ``max_events`` of them, none later than ``end_time``, checking
        ``condition()`` (when given) before each one.  Cancelled heads are
        discarded *before* the time check, so a corpse at the head never
        lets a later live event slip past ``end_time``.  Returns the
        number of events executed.  :attr:`horizon` reads ``horizon``
        while the loop runs and the caller's value again afterwards.

        A :class:`PeriodicTask`'s event is re-armed in place once its
        callback returns and the task still runs: the same ``Event``
        object goes back on the heap at ``now + period`` with a fresh
        sequence number, followed by the same compaction check as
        :meth:`schedule` — exactly the ``schedule(period, ...)`` the task
        would otherwise make, so dispatch order is unchanged.  This is the
        kernel's only re-arm site.
        """
        global _global_event_count
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        sequence = self._seq
        note_cancelled = self._note_cancelled
        obs_events = self._obs_events
        executed = 0
        outer_horizon = self._horizon
        self._horizon = horizon
        try:
            while executed < max_events and (condition is None or condition()):
                while queue and queue[0][3].cancelled:
                    self._discard(heappop(queue)[3])
                if not queue or queue[0][0] > end_time:
                    break
                event = heappop(queue)[3]
                event._cancel_hook = None
                self._now = event.time
                self._event_count += 1
                _global_event_count += 1
                if obs_events is not None:
                    obs_events.inc()
                event.callback()
                executed += 1
                task = event.task
                if task is not None and task._running:
                    time = self._now + task._period
                    seq = next(sequence)
                    event.time = time
                    event.seq = seq
                    event.cancelled = False
                    event._cancel_hook = note_cancelled
                    heappush(queue, (time, event.priority, seq, event))
                    self._finished = False
                    if (
                        self._cancelled_in_queue > _COMPACT_MIN_CANCELLED
                        and self._cancelled_in_queue * 2 > len(queue)
                    ):
                        self._compact()
        finally:
            self._horizon = outer_horizon
        return executed

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        return self._dispatch(math.inf, 1, None) == 1

    def run_until(self, end_time: float) -> None:
        """Run events up to and including ``end_time``, then set the clock.

        Events scheduled exactly at ``end_time`` do run.  The clock ends
        at ``end_time``, or later if a callback's nested run already
        moved it past: it never moves backwards.
        """
        if math.isnan(end_time):
            raise SimulationError("run_until(nan): the end time must be a number")
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time}) is before now ({self._now})"
            )
        self._dispatch(end_time, _NO_LIMIT, None, end_time)
        self._now = max(self._now, end_time)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` executed).

        Raises
        ------
        SimulationError
            If the simulator already ran to completion and nothing new was
            scheduled since — a silent no-op here almost always means the
            caller forgot to schedule work or meant to build a new run.
        """
        if self._finished and not any(
            not entry[3].cancelled for entry in self._queue
        ):
            raise SimulationError(
                "this simulator already ran to completion and the event "
                "queue is empty — schedule new events before calling run() "
                "again, or create a fresh Simulator for a new run"
            )
        # A budget below one still runs one event, as it always has.
        limit = _NO_LIMIT if max_events is None else max(max_events, 1)
        if self._dispatch(math.inf, limit, None) < limit:
            self._finished = True

    def run_while(self, condition: Callable[[], bool], max_time: float) -> None:
        """Run while ``condition()`` holds, but never past ``max_time``.

        Useful for "run until the user finishes the task or we time out".
        No event later than ``max_time`` ever executes, even when cancelled
        events sit at the head of the queue.
        """
        if math.isnan(max_time):
            raise SimulationError(
                "run_while(max_time=nan): the deadline must be a number"
            )
        self._dispatch(max_time, _NO_LIMIT, condition)
        if not condition():
            return
        self._now = max(self._now, max_time)


class PeriodicTask:
    """A callback invoked at a fixed period until stopped.

    This is the backbone of every polling loop in the hardware simulation:
    ADC sampling, firmware ticks, display refresh, battery discharge.

    The task owns one :class:`Event` for its whole life.  While the task
    runs, the simulator's event loop re-arms that event in place after
    each invocation, ``period`` seconds later.

    Parameters
    ----------
    sim:
        The simulator to schedule on.
    period:
        Seconds between invocations (must be > 0).
    callback:
        Called with no arguments each period.  The task's event calls it
        directly; the kernel re-arms the event in place afterwards.
    phase:
        Delay before the first invocation; defaults to one full period.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        phase: Optional[float] = None,
    ) -> None:
        if not period > 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._period = float(period)
        self._running = True
        first = self._period if phase is None else float(phase)
        event = sim.schedule(first, callback)
        event.task = self
        self._event: Optional[Event] = event

    @property
    def period(self) -> float:
        """Period in seconds."""
        return self._period

    @property
    def running(self) -> bool:
        """Whether the task will fire again."""
        return self._running

    def stop(self) -> None:
        """Cancel any pending invocation and stop rescheduling."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None
