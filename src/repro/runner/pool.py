"""The parallel experiment driver behind ``python -m repro run-all``.

Runner v2: one scheduler over the two executors in
:mod:`repro.runner.executors` — inline for ``jobs == 1``, the work
queue for ``jobs >= 2``.  The driver derives every experiment's shard
list, serves shard-cache hits, orders the remaining work
longest-processing-time-first (cost-aware LPT, so stragglers start
early), submits it all up front, and then collects
strictly as-completed: each experiment merges the moment its own last
shard lands — no submission-order waits, no cross-experiment barrier —
and the first shard failure cancels all outstanding work and re-raises.

Resilience features, both proven byte-identical to the inline path:

* **Shard-cache resume** — every computed shard is written to the
  content-addressed cache as it completes, so an interrupted run
  re-invoked with the same cache recomputes only the missing shards
  (each report entry's ``shards_from_cache`` records the split).  A
  warm run is the same path with every shard a hit: each experiment
  merges at once and its entry reads ``cached: true``.
* **Crash retry** (work queue) — a worker that dies mid-shard is
  detected by liveness, its shard requeued exactly once per loss, and
  a replacement worker spawned (each report entry's ``retries`` counts
  the losses).

Determinism: work units are fixed by ``(experiment id, seed, shard
index)`` alone and merging sorts by shard index, so the merged rows —
and therefore the CSV bytes — are identical for any jobs count, any
completion order and any crash/retry interleaving.

This module is the runner's one wall-clock site: all queue-wait/
execute/merge spans and the worker-utilisation figure in
``BENCH_runner.json`` are measured here, around — never inside — the
deterministic simulation.  Each clock read carries its own
``# reprolint: allow REP001`` waiver.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.experiments.harness import ExperimentResult
from repro.runner.cache import ResultCache, source_digest
from repro.runner.executors import (
    ShardExecutionError,
    ShardTask,
    TaskKey,
    backend_for,
    make_executor,
)
from repro.runner.registry import REGISTRY, ExperimentSpec
from repro.runner.sharding import (
    ShardResult,
    estimate_shard_cost,
    make_shards,
    merge_shard_results,
    n_shards,
)

__all__ = ["CrashPlanError", "run_experiments"]

#: Poll interval for the as-completed collection loop (seconds).
_POLL_S = 0.05

#: Consecutive completely-idle polls (nothing running, nothing queued,
#: work still missing) tolerated before declaring the run stalled.
_STALL_POLLS = 100


class CrashPlanError(ValueError):
    """A crash-plan key names no shard of the run it was given to."""


def run_experiments(
    experiment_ids: Sequence[str],
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    csv_dir: Optional[Path | str] = None,
    bench_path: Optional[Path | str] = None,
    echo: Optional[Callable[[str], None]] = None,
    observe: bool = False,
    overrides: Optional[dict[str, ExperimentSpec]] = None,
    *,
    crash_plan: Optional[dict[TaskKey, int]] = None,
) -> tuple[dict[str, ExperimentResult], dict]:
    """Run experiments inline (``jobs == 1``) or on the work queue.

    Parameters
    ----------
    experiment_ids:
        Registry ids, reported in the given order (executed
        as-completed).
    seed:
        Experiment seed (same meaning as ``repro run --seed``).
    jobs:
        Worker processes, at least 1.  ``1`` runs every shard inline in
        this process; more runs them on the work-queue executor.
    cache:
        Shard cache, or ``None`` to bypass caching entirely.  When
        set, every shard is served from it or written to it, which is
        what makes interrupted runs resumable: a re-run with the same
        cache recomputes only the shards it lacks.
    csv_dir:
        When set, each merged result is written to ``<csv_dir>/<ID>.csv``
        the moment that experiment merges.
    bench_path:
        When set, the timing report is written there as JSON.
    echo:
        Progress-line sink (e.g. ``print``); ``None`` for silence.
    observe:
        Run every shard under a :class:`repro.obs.Recorder` and attach
        the merged observability payload to each result's ``obs``
        attribute.  Caching is bypassed (cached results carry no
        payload), and the payload is deterministic across job counts.
    overrides:
        Specs that replace (or extend) the registry per experiment id —
        how the CLI injects a dynamic ``--users N`` population spec.
    crash_plan:
        ``{(experiment_id, shard_index): n_crashes}`` fault injection
        for ``jobs >= 2`` — each counted execution of that shard is
        killed mid-flight.  A key that names no shard of this run
        raises :class:`CrashPlanError`.  Test/CI machinery.

    Returns
    -------
    ``(results, bench)`` — merged results keyed by id, and the timing
    report that ``bench_path`` receives.
    """
    say = echo or (lambda _line: None)
    if observe:
        cache = None  # cached results carry no observability payload
    backend_name = backend_for(jobs)
    specs = {**REGISTRY, **(overrides or {})}
    unknown = [i for i in experiment_ids if i not in specs]
    if unknown:
        raise KeyError(f"unknown experiment ids: {', '.join(unknown)}")
    for experiment_id, index in crash_plan or {}:
        if experiment_id not in experiment_ids:
            raise CrashPlanError(
                f"crash plan names {experiment_id!r}, which is not in"
                " this run"
            )
        count = n_shards(specs[experiment_id], seed)
        if not 0 <= index < count:
            raise CrashPlanError(
                f"crash plan names shard {index} of {experiment_id},"
                f" which has {count} shard(s)"
            )

    # reprolint: allow REP001 (run-report suite wall time, taken around the sim)
    started = time.perf_counter()

    results: dict[str, ExperimentResult] = {}
    per_experiment: dict[str, dict] = {}
    csv_root = Path(csv_dir) if csv_dir is not None else None

    # ------------------------------------------------------------------
    # phase 1: shard lists, shard-cache hits
    # ------------------------------------------------------------------
    collected: dict[TaskKey, ShardResult] = {}
    cached_keys: set[TaskKey] = set()
    queue_waits: dict[TaskKey, float] = {}
    shard_retries: dict[TaskKey, int] = {}
    remaining: dict[str, int] = {}
    shard_counts: dict[str, int] = {}
    tasks: list[ShardTask] = []

    for experiment_id in experiment_ids:
        spec = specs[experiment_id]
        shards = make_shards(spec, seed)
        shard_counts[experiment_id] = len(shards)
        remaining[experiment_id] = len(shards)
        for shard in shards:
            task_key: TaskKey = (experiment_id, shard.index)
            if cache is not None:
                cached_shard = cache.get_shard(spec, seed, shard.index)
                if cached_shard is not None:
                    collected[task_key] = cached_shard
                    cached_keys.add(task_key)
                    queue_waits[task_key] = 0.0
                    remaining[experiment_id] -= 1
                    continue
            tasks.append(
                ShardTask(
                    key=task_key,
                    spec=spec,
                    seed=seed,
                    observe=observe,
                    cost=estimate_shard_cost(spec, shard),
                )
            )

    # ------------------------------------------------------------------
    # merge-on-last-shard (shared by fully cached experiments and the
    # live loop)
    # ------------------------------------------------------------------
    def merge_experiment(experiment_id: str) -> None:
        spec = specs[experiment_id]
        parts = [
            collected[(experiment_id, index)]
            for index in range(shard_counts[experiment_id])
        ]
        # reprolint: allow REP001 (run-report merge time, taken around the merge)
        merge_started = time.perf_counter()
        merged = merge_shard_results(spec, parts)
        # reprolint: allow REP001 (run-report merge time, taken around the merge)
        merge_s = time.perf_counter() - merge_started
        results[experiment_id] = merged
        wall_s = sum(part.wall_s for part in parts)
        events = sum(part.events for part in parts)
        computed_parts = [
            part
            for part in parts
            if (experiment_id, part.index) not in cached_keys
        ]
        from_cache = len(parts) - len(computed_parts)
        per_experiment[experiment_id] = {
            "wall_s": sum(part.wall_s for part in computed_parts),
            "compute_wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "shards": len(parts),
            "cached": not computed_parts,
            "shards_from_cache": from_cache,
            "retries": sum(
                shard_retries.get((experiment_id, part.index), 0)
                for part in parts
            ),
            "merge_s": merge_s,
            "queue_wait_s": sum(
                queue_waits[(experiment_id, part.index)] for part in parts
            ),
        }
        if csv_root is not None:
            merged.to_csv(csv_root / f"{experiment_id}.csv")
        if computed_parts:
            say(
                f"{experiment_id:18s} {wall_s:6.2f}s  "
                f"{len(parts)} shard(s), {from_cache} from cache  "
                f"{events} events"
            )
        else:
            say(f"{experiment_id:18s} cached ({len(merged.rows)} rows)")

    for experiment_id in list(remaining):
        if remaining[experiment_id] == 0:
            merge_experiment(experiment_id)

    # ------------------------------------------------------------------
    # phase 2: LPT submit, as-completed collection
    # ------------------------------------------------------------------
    # Longest-processing-time first: expensive shards start earliest so
    # the tail of the schedule is short shards, not stragglers.  The
    # sort is deterministic (cost, then submission order) and cannot
    # affect merged bytes — only the makespan.
    order = {task.key: position for position, task in enumerate(tasks)}
    tasks.sort(key=lambda task: (-task.cost, order[task.key]))

    fanout_wall_s = 0.0
    executed_wall_s = 0.0
    if tasks:
        executor = make_executor(jobs, crash_plan)
        submit_times: dict[TaskKey, float] = {}
        # reprolint: allow REP001 (run-report worker utilisation, taken around the sim)
        fanout_started = time.perf_counter()
        try:
            for task in tasks:
                executor.submit(task)
                # reprolint: allow REP001 (run-report queue wait, taken around the sim)
                submit_times[task.key] = time.perf_counter()

            idle_polls = 0
            while any(count > 0 for count in remaining.values()):
                completions = executor.poll(_POLL_S)
                # reprolint: allow REP001 (run-report queue wait, taken around the sim)
                now = time.perf_counter()
                for completion in completions:
                    task_key = completion.key
                    experiment_id, index = task_key
                    result = completion.result
                    if result is None:
                        # First error: cancel all outstanding work.
                        executor.cancel_pending()
                        if completion.error is not None:
                            raise completion.error
                        raise ShardExecutionError(
                            task_key,
                            completion.error_detail
                            or "unknown worker failure",
                        )
                    collected[task_key] = result
                    queue_waits[task_key] = max(
                        0.0, now - submit_times[task_key] - result.wall_s
                    )
                    retries = executor.retries.get(task_key, 0)
                    shard_retries[task_key] = retries
                    if retries:
                        say(
                            f"{experiment_id:18s} shard {index} retried"
                            f" after {retries} worker loss(es)"
                        )
                    if cache is not None:
                        cache.put_shard(
                            specs[experiment_id], seed, index, result
                        )
                    remaining[experiment_id] -= 1
                    if remaining[experiment_id] == 0:
                        merge_experiment(experiment_id)
                if completions:
                    idle_polls = 0
                    continue
                busy = executor.running() or executor.queued()
                idle_polls = 0 if busy else idle_polls + 1
                if idle_polls >= _STALL_POLLS:
                    missing = [
                        task.key
                        for task in tasks
                        if task.key not in collected
                    ]
                    raise RuntimeError(
                        "runner stalled: no workers busy and shards"
                        f" missing: {missing[:8]}"
                    )
        finally:
            executor.close()
        # reprolint: allow REP001 (run-report worker utilisation, taken around the sim)
        fanout_wall_s = time.perf_counter() - fanout_started
        executed_wall_s = sum(
            result.wall_s
            for task_key, result in collected.items()
            if task_key not in cached_keys
        )

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    # reprolint: allow REP001 (run-report suite wall time, taken around the sim)
    total_wall_s = time.perf_counter() - started
    computed_wall_s = sum(
        entry["wall_s"] for entry in per_experiment.values()
    )
    serial_equivalent_s = sum(
        entry["compute_wall_s"] for entry in per_experiment.values()
    )
    bench = {
        "generated_by": "python -m repro run-all",
        # Which sources produced the report: compare with
        # source_digest() to tell whether the artefact is current.
        "source_digest": source_digest(),
        "jobs": jobs,
        "backend": backend_name,
        "seed": seed,
        "experiment_count": len(experiment_ids),
        "cached_count": sum(
            1 for entry in per_experiment.values() if entry["cached"]
        ),
        "total_wall_s": total_wall_s,
        "computed_wall_s": computed_wall_s,
        "serial_equivalent_s": serial_equivalent_s,
        # Scheduler-honest speedup: only shards actually computed this
        # run enter the numerator, so a fully cached run reports ~0
        # rather than a fantasy parallel speedup.
        "speedup_vs_serial_computed_only": (
            computed_wall_s / total_wall_s if total_wall_s > 0 else 0.0
        ),
        "fanout_wall_s": fanout_wall_s,
        "worker_utilisation": (
            executed_wall_s / (jobs * fanout_wall_s)
            if fanout_wall_s > 0
            else None
        ),
        "experiments": {
            experiment_id: per_experiment[experiment_id]
            for experiment_id in experiment_ids
        },
    }

    if bench_path is not None:
        bench_path = Path(bench_path)
        bench_path.parent.mkdir(parents=True, exist_ok=True)
        bench_path.write_text(json.dumps(bench, indent=2) + "\n")
    return results, bench

