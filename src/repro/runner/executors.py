"""The two executors behind the parallel runner.

The scheduler in :mod:`repro.runner.pool` drives an executor through
one contract: it submits :class:`ShardTask` work units, polls for
:class:`Completion` events in whatever order shards actually finish,
and asks how much idle capacity is left (the signal that drives
speculative re-execution of stragglers).  The job count alone picks
the executor (:func:`make_executor`):

``inline`` (``jobs == 1``)
    No processes at all.  Tasks execute one per ``poll`` call inside
    the driver, in submission order — the reference path that the
    work queue must match byte-for-byte.
``workqueue`` (``jobs >= 2``)
    Long-lived ``multiprocessing`` worker processes consuming a shared
    task queue and reporting on a result queue — the single-machine
    stand-in for a multi-machine fleet.  The driver sees ``start``
    events per attempt, detects worker death (by liveness, not by
    timeout), requeues the lost shard exactly once per crash, and
    spawns a replacement worker to keep capacity constant.  A shard
    that raises comes back as a :class:`ShardExecutionError` carrying
    the worker's traceback.  Tests inject deterministic crashes via
    ``crash_plan`` — the faults subsystem's discipline (seeded,
    declarative failure windows) applied to the runner's own workers:
    a planned crash makes the victim ``os._exit`` mid-shard, and the
    merged CSV must still be byte-identical to the inline run.

Work units are location-independent by construction — a task is
``(spec, seed, shard index, observe)`` and the shard is re-derived
O(1) inside the worker (:func:`repro.runner.sharding.make_shard`) — so
any attempt of any task on any worker produces the same bytes.  That
is the determinism argument that makes retry *and* speculation safe:
first result wins, and when both attempts finish the driver asserts
their digests match.

This module deliberately reads no clocks: all wall-time telemetry
(queue-wait, execute, merge spans) is measured by the driver in
``pool.py``, the one runner module exempt from the REP001 wall-clock
rule.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol, runtime_checkable

from repro.runner.registry import ExperimentSpec
from repro.runner.sharding import ShardResult, execute_shard, make_shard

__all__ = [
    "TaskKey",
    "ShardTask",
    "Completion",
    "Executor",
    "ShardExecutionError",
    "InlineExecutor",
    "WorkQueueExecutor",
    "backend_for",
    "make_executor",
]

#: ``(experiment_id, shard_index)`` — the identity of one work unit.
TaskKey = tuple[str, int]


class ShardExecutionError(RuntimeError):
    """A shard failed inside a worker; carries the remote traceback."""

    def __init__(self, key: TaskKey, detail: str) -> None:
        super().__init__(
            f"shard {key[0]}[{key[1]}] failed in worker:\n{detail}"
        )
        self.key = key
        self.detail = detail


@dataclass(frozen=True)
class ShardTask:
    """One schedulable work unit (an attempt at a shard)."""

    key: TaskKey
    spec: ExperimentSpec
    seed: int
    observe: bool
    #: LPT ordering weight (``estimate_shard_cost``); larger runs first.
    cost: float


@dataclass
class Completion:
    """One finished attempt, success or failure."""

    key: TaskKey
    attempt: int
    result: Optional[ShardResult] = None
    #: The original exception (inline) — re-raised by the driver.
    error: Optional[BaseException] = None
    #: Remote traceback text (workqueue) when ``error`` crossed a
    #: process boundary as a string.
    error_detail: Optional[str] = None


@runtime_checkable
class Executor(Protocol):
    """The executor contract the scheduler drives.

    ``submit`` enqueues an attempt at a shard; ``poll`` blocks up to
    ``timeout`` seconds and returns whatever attempts finished, in
    completion order; ``running``/``queued``/``idle_capacity`` expose
    the occupancy signals that drive speculation; ``cancel_pending``
    abandons all outstanding work (first-error cancellation) and
    ``close`` releases workers.
    """

    name: str

    def submit(self, task: "ShardTask", attempt: int = 0) -> None: ...

    def poll(self, timeout: float) -> list["Completion"]: ...

    def running(self) -> set[TaskKey]: ...

    def queued(self) -> int: ...

    def idle_capacity(self) -> int: ...

    def cancel_pending(self) -> None: ...

    def close(self) -> None: ...


def run_shard_task(
    spec: ExperimentSpec, seed: int, index: int, observe: bool
) -> ShardResult:
    """Worker entry: derive the single shard O(1) and execute it.

    Only ``(spec, seed, index, observe)`` crosses the process boundary —
    the spec is plain frozen data, so dynamic specs (e.g. a ``--users``
    population study not present in the registry) ship exactly like
    registry ones.  ``make_shard`` reconstructs shard ``index`` alone,
    so a worker running one shard of a million-user study no longer
    materializes the other S-1.
    """
    shard = make_shard(spec, seed, index)
    return execute_shard(spec, seed, shard, observe=observe)


class InlineExecutor:
    """Run tasks in-process, one per poll, in submission order."""

    name = "inline"

    def __init__(self, workers: int = 1) -> None:
        self.workers = 1
        self._queue: list[tuple[ShardTask, int]] = []

    def submit(self, task: ShardTask, attempt: int = 0) -> None:
        self._queue.append((task, attempt))

    def poll(self, timeout: float) -> list[Completion]:
        """Execute the next queued task and report it."""
        if not self._queue:
            return []
        task, attempt = self._queue.pop(0)
        try:
            result = run_shard_task(
                task.spec, task.seed, task.key[1], task.observe
            )
        except Exception as error:
            return [Completion(task.key, attempt, error=error)]
        return [Completion(task.key, attempt, result=result)]

    def running(self) -> set[TaskKey]:
        """Keys currently executing (inline never has any mid-poll)."""
        return set()

    def queued(self) -> int:
        return len(self._queue)

    def idle_capacity(self) -> int:
        return 0  # never speculate against ourselves

    def cancel_pending(self) -> None:
        self._queue.clear()

    def close(self) -> None:
        self._queue.clear()


def _workqueue_worker(
    worker_id: int,
    tasks: "multiprocessing.queues.Queue[Any]",
    results: "multiprocessing.queues.Queue[Any]",
) -> None:
    """Worker main loop: consume tasks until the ``None`` sentinel.

    Every attempt is announced with a ``start`` event before execution,
    so the driver knows exactly which shard a worker was holding if it
    dies.  A task whose ``crash`` flag is set simulates that death:
    the worker announces the start, then exits hard without a result —
    the deterministic stand-in for a machine loss mid-shard.
    """
    while True:
        item = tasks.get()
        if item is None:
            break
        key, attempt, spec, seed, index, observe, crash = item
        results.put(("start", worker_id, key, attempt))
        if crash:
            # ``Queue.put`` hands off to a feeder thread; flush it before
            # dying, or the driver never learns the shard was in flight.
            results.close()
            results.join_thread()
            os._exit(13)
        try:
            result = run_shard_task(spec, seed, index, observe)
        except BaseException:
            results.put(
                ("error", worker_id, key, attempt, traceback.format_exc())
            )
        else:
            results.put(("done", worker_id, key, attempt, result))


@dataclass
class _WorkerState:
    process: multiprocessing.process.BaseProcess
    #: Attempts announced (``start``) but not yet finished.
    in_flight: dict[TaskKey, int] = field(default_factory=dict)


class WorkQueueExecutor:
    """Work-queue fan-out over long-lived worker processes.

    The local stand-in for a distributed fleet: work units travel over
    a queue, workers are individually mortal, and the driver owns
    retry.  ``crash_plan`` maps a :data:`TaskKey` to how many times its
    execution should be killed mid-shard before being allowed to
    finish — the runner-level analogue of a
    :class:`repro.faults.FaultWindow`, injected deterministically so
    tests can prove merged bytes survive worker loss.
    """

    name = "workqueue"

    def __init__(
        self,
        workers: int,
        crash_plan: Optional[dict[TaskKey, int]] = None,
    ) -> None:
        self.workers = max(1, workers)
        self._context = multiprocessing.get_context()
        self._tasks: multiprocessing.queues.Queue[Any] = (
            self._context.Queue()
        )
        self._results: multiprocessing.queues.Queue[Any] = (
            self._context.Queue()
        )
        self._crashes_remaining = dict(crash_plan or {})
        self.retries: dict[TaskKey, int] = {}
        self._tasks_by_key: dict[TaskKey, ShardTask] = {}
        self._queued = 0
        self._next_worker_id = 0
        self._workers: dict[int, _WorkerState] = {}
        self._done_keys: set[TaskKey] = set()
        self._closed = False
        for _ in range(self.workers):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._context.Process(
            target=_workqueue_worker,
            args=(worker_id, self._tasks, self._results),
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = _WorkerState(process)

    def _enqueue(self, task: ShardTask, attempt: int) -> None:
        crash = self._crashes_remaining.get(task.key, 0) > 0
        if crash:
            self._crashes_remaining[task.key] -= 1
        self._tasks.put(
            (
                task.key,
                attempt,
                task.spec,
                task.seed,
                task.key[1],
                task.observe,
                crash,
            )
        )
        self._queued += 1

    def submit(self, task: ShardTask, attempt: int = 0) -> None:
        self._tasks_by_key[task.key] = task
        self._enqueue(task, attempt)

    def _reap_dead_workers(self) -> None:
        """Requeue the in-flight work of any worker that died."""
        dead = [
            worker_id
            for worker_id, state in self._workers.items()
            if not state.process.is_alive()
        ]
        for worker_id in dead:
            state = self._workers.pop(worker_id)
            state.process.join()
            for key, attempt in state.in_flight.items():
                if key in self._done_keys:
                    continue  # a speculative twin already delivered it
                self.retries[key] = self.retries.get(key, 0) + 1
                self._enqueue(self._tasks_by_key[key], attempt + 1)
            self._spawn_worker()

    def poll(self, timeout: float) -> list[Completion]:
        completions: list[Completion] = []
        try:
            message = self._results.get(timeout=timeout)
        except queue_module.Empty:
            self._reap_dead_workers()
            return completions
        while True:
            kind, worker_id, key, attempt = message[:4]
            state = self._workers.get(worker_id)
            if kind == "start":
                self._queued -= 1
                if state is not None:
                    state.in_flight[key] = attempt
            elif kind == "done":
                if state is not None:
                    state.in_flight.pop(key, None)
                self._done_keys.add(key)
                completions.append(Completion(key, attempt, result=message[4]))
            else:  # error
                if state is not None:
                    state.in_flight.pop(key, None)
                completions.append(
                    Completion(key, attempt, error_detail=message[4])
                )
            try:
                message = self._results.get_nowait()
            except queue_module.Empty:
                break
        return completions

    def running(self) -> set[TaskKey]:
        keys: set[TaskKey] = set()
        for state in self._workers.values():
            keys.update(state.in_flight)
        return keys

    def queued(self) -> int:
        return self._queued

    def idle_capacity(self) -> int:
        busy = sum(
            1 for state in self._workers.values() if state.in_flight
        )
        alive = sum(
            1
            for state in self._workers.values()
            if state.process.is_alive()
        )
        return max(0, alive - busy)

    def cancel_pending(self) -> None:
        """Tear down the fleet immediately (first-error cancellation)."""
        for state in self._workers.values():
            if state.process.is_alive():
                state.process.terminate()
        for state in self._workers.values():
            state.process.join(timeout=5.0)
        self._workers.clear()
        self._drain_queues()

    def _drain_queues(self) -> None:
        for channel in (self._tasks, self._results):
            while True:
                try:
                    channel.get_nowait()
                except (queue_module.Empty, OSError):
                    break

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for state in self._workers.values():
            if state.process.is_alive():
                self._tasks.put(None)
        for state in self._workers.values():
            state.process.join(timeout=5.0)
            if state.process.is_alive():
                state.process.terminate()
                state.process.join(timeout=5.0)
        self._workers.clear()
        self._tasks.close()
        self._results.close()


def backend_for(jobs: int) -> str:
    """The executor name for ``jobs`` workers: inline for 1, else workqueue."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (got {jobs})")
    return InlineExecutor.name if jobs == 1 else WorkQueueExecutor.name


def make_executor(
    jobs: int,
    crash_plan: Optional[dict[TaskKey, int]] = None,
) -> Executor:
    """Inline for ``jobs == 1``, the work queue for ``jobs >= 2``.

    ``crash_plan`` kills worker processes, so asking for an injected
    crash inline is a caller error, not a silent no-op.
    """
    if backend_for(jobs) == WorkQueueExecutor.name:
        return WorkQueueExecutor(jobs, crash_plan=crash_plan)
    if crash_plan:
        raise ValueError(
            "crash injection needs worker processes: use jobs >= 2"
        )
    return InlineExecutor()
