"""The parallel experiment driver behind ``python -m repro run-all``.

Runner v2: one scheduler over the two executors in
:mod:`repro.runner.executors` — inline for ``jobs == 1``, the work
queue for ``jobs >= 2``.  The driver derives every experiment's shard
list, serves whole-experiment and **shard-level** cache hits, orders
the remaining work longest-processing-time-first (cost-aware LPT, so
stragglers start early), submits it all up front, and then collects
strictly as-completed: each experiment merges the moment its own last
shard lands — no submission-order waits, no cross-experiment barrier —
and the first shard failure cancels all outstanding work and re-raises.

Resilience features, all proven byte-identical to the inline path:

* **Shard cache + manifest resume** — every computed shard is written
  to the content-addressed cache as it completes and recorded in a
  :class:`~repro.runner.manifest.RunManifest`; an interrupted run
  re-invoked with ``resume=True`` recomputes only the missing shards
  (the manifest's per-session ``shard_cache_hits`` counter asserts it).
* **Crash retry** (work queue) — a worker that dies mid-shard is
  detected by liveness, its shard requeued exactly once per loss, and
  a replacement worker spawned.
* **Speculative re-execution** — with ``speculate=True``, once the
  submit queue drains, idle workers are given duplicates of the
  costliest still-running shards.  First result wins; when both
  attempts finish their digests must match
  (:func:`~repro.runner.sharding.shard_result_digest`), turning the
  determinism contract into a runtime assertion.

Determinism: work units are fixed by ``(experiment id, seed, shard
index)`` alone and merging sorts by shard index, so the merged rows —
and therefore the CSV bytes — are identical for any jobs count, any
completion order, any crash/retry interleaving, and speculation on or
off.

This module is the runner's one wall-clock site (REP001-exempt): all
queue-wait/execute/merge spans and the worker-utilisation figure in
``BENCH_runner.json`` are measured here, around — never inside — the
deterministic simulation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.experiments.harness import ExperimentResult
from repro.runner.cache import ResultCache
from repro.runner.executors import (
    Completion,
    Executor,
    ShardExecutionError,
    ShardTask,
    TaskKey,
    backend_for,
    make_executor,
)
from repro.runner.manifest import RunManifest, run_key
from repro.runner.registry import REGISTRY, ExperimentSpec
from repro.runner.sharding import (
    ShardResult,
    estimate_shard_cost,
    make_shards,
    merge_shard_results,
    n_shards,
    shard_result_digest,
)

__all__ = ["CrashPlanError", "run_experiments"]

#: Poll interval for the as-completed collection loop (seconds).
_POLL_S = 0.05

#: Consecutive completely-idle polls (nothing running, nothing queued,
#: work still missing) tolerated before declaring the run stalled.
_STALL_POLLS = 100

#: Attempt numbers at/above this mark speculative twins.
_SPECULATIVE_ATTEMPT = 1000


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
    resume: bool = False,
    speculate: bool = False,
    manifest_path: Optional[Path | str] = None,
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
        Result cache, or ``None`` to bypass caching entirely.  When
        set, both whole-experiment entries and per-shard entries are
        served and written — the shard entries are what make
        interrupted runs resumable.
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
    resume:
        Reuse an existing manifest at ``manifest_path`` (must carry the
        same run key) instead of superseding it.  Shard-cache reads do
        the actual resuming; this flag makes the continuation explicit
        and refuses mismatched manifests.
    speculate:
        Enable straggler speculation (``jobs >= 2`` only; the inline
        executor reports no idle capacity, so it never speculates).
    manifest_path:
        Where to persist the :class:`RunManifest`; ``None`` disables
        manifest bookkeeping.
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

    started = time.perf_counter()
    manifest: Optional[RunManifest] = None
    if manifest_path is not None:
        key = run_key([specs[i] for i in experiment_ids], seed, observe)
        manifest = RunManifest.open(
            manifest_path, key, seed, resume=resume
        )
        manifest.begin_session(backend_name, jobs, speculate)

    results: dict[str, ExperimentResult] = {}
    per_experiment: dict[str, dict] = {}
    written_csvs: set[str] = set()
    csv_root = Path(csv_dir) if csv_dir is not None else None

    # ------------------------------------------------------------------
    # phase 1: whole-experiment cache, shard lists, shard-cache hits
    # ------------------------------------------------------------------
    collected: dict[TaskKey, ShardResult] = {}
    shard_sources: dict[TaskKey, str] = {}
    queue_waits: dict[TaskKey, float] = {}
    remaining: dict[str, int] = {}
    shard_counts: dict[str, int] = {}
    tasks: list[ShardTask] = []

    for experiment_id in experiment_ids:
        spec = specs[experiment_id]
        if cache is not None:
            hit = cache.get(spec, seed)
            if hit is not None:
                result, meta = hit
                results[experiment_id] = result
                per_experiment[experiment_id] = {
                    "wall_s": 0.0,
                    "compute_wall_s": float(meta.get("wall_s", 0.0)),
                    "events": int(meta.get("events", 0)),
                    "events_per_s": float(meta.get("events_per_s", 0.0)),
                    "shards": int(meta.get("shards", 1)),
                    "cached": True,
                }
                if manifest is not None:
                    manifest.mark_experiment_cached(experiment_id)
                say(f"{experiment_id:18s} cached ({len(result.rows)} rows)")
                continue
        shards = make_shards(spec, seed)
        shard_counts[experiment_id] = len(shards)
        remaining[experiment_id] = len(shards)
        if manifest is not None:
            manifest.register_experiment(experiment_id, len(shards))
        for shard in shards:
            task_key: TaskKey = (experiment_id, shard.index)
            if cache is not None:
                cached_shard = cache.get_shard(spec, seed, shard.index)
                if cached_shard is not None:
                    collected[task_key] = cached_shard
                    shard_sources[task_key] = "shard-cache"
                    queue_waits[task_key] = 0.0
                    remaining[experiment_id] -= 1
                    if manifest is not None:
                        manifest.mark_shard_done(
                            experiment_id,
                            shard.index,
                            "shard-cache",
                            execute_s=cached_shard.wall_s,
                            queue_wait_s=0.0,
                        )
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
    # merge-on-last-shard (shared by the cache path and the live loop)
    # ------------------------------------------------------------------
    def merge_experiment(experiment_id: str) -> None:
        spec = specs[experiment_id]
        parts = [
            collected[(experiment_id, index)]
            for index in range(shard_counts[experiment_id])
        ]
        merge_started = time.perf_counter()
        merged = merge_shard_results(spec, parts)
        merge_s = time.perf_counter() - merge_started
        results[experiment_id] = merged
        wall_s = sum(part.wall_s for part in parts)
        events = sum(part.events for part in parts)
        computed_parts = [
            part
            for part in parts
            if shard_sources[(experiment_id, part.index)] == "computed"
        ]
        meta = {
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "shards": len(parts),
        }
        per_experiment[experiment_id] = {
            "wall_s": sum(part.wall_s for part in computed_parts),
            "compute_wall_s": wall_s,
            "cached": False,
            "shards_from_cache": len(parts) - len(computed_parts),
            "merge_s": merge_s,
            "queue_wait_s": sum(
                queue_waits[(experiment_id, part.index)] for part in parts
            ),
            **{k: meta[k] for k in ("events", "events_per_s", "shards")},
        }
        if cache is not None:
            cache.put(spec, seed, merged, meta)
        if csv_root is not None:
            merged.to_csv(csv_root / f"{experiment_id}.csv")
            written_csvs.add(experiment_id)
        say(
            f"{experiment_id:18s} {wall_s:6.2f}s  "
            f"{len(parts)} shard(s)  {events} events"
        )

    for experiment_id in list(remaining):
        if remaining[experiment_id] == 0:
            merge_experiment(experiment_id)

    # ------------------------------------------------------------------
    # phase 2: LPT submit, as-completed collection, speculation
    # ------------------------------------------------------------------
    # Longest-processing-time first: expensive shards start earliest so
    # the tail of the schedule is short shards, not stragglers.  The
    # sort is deterministic (cost, then submission order) and cannot
    # affect merged bytes — only the makespan.
    order = {task.key: position for position, task in enumerate(tasks)}
    tasks.sort(key=lambda task: (-task.cost, order[task.key]))

    speculation = {"launched": 0, "wins": 0, "checked": 0}
    fanout_wall_s = 0.0
    executed_wall_s = 0.0
    if tasks:
        executor = make_executor(jobs, crash_plan)
        tasks_by_key = {task.key: task for task in tasks}
        submit_times: dict[TaskKey, float] = {}
        digests: dict[TaskKey, str] = {}
        speculated: set[TaskKey] = set()
        fanout_started = time.perf_counter()
        try:
            for task in tasks:
                executor.submit(task)
                submit_times[task.key] = time.perf_counter()

            idle_polls = 0
            while any(count > 0 for count in remaining.values()):
                completions = executor.poll(_POLL_S)
                now = time.perf_counter()
                if completions:
                    idle_polls = 0
                for completion in completions:
                    _handle_completion(
                        completion,
                        now=now,
                        specs=specs,
                        seed=seed,
                        cache=cache,
                        manifest=manifest,
                        executor=executor,
                        collected=collected,
                        shard_sources=shard_sources,
                        queue_waits=queue_waits,
                        submit_times=submit_times,
                        digests=digests,
                        speculated=speculated,
                        speculation=speculation,
                        remaining=remaining,
                        merge_experiment=merge_experiment,
                        say=say,
                    )
                if speculate and executor.queued() == 0:
                    _launch_speculation(
                        executor,
                        tasks_by_key,
                        collected,
                        speculated,
                        speculation,
                        submit_times,
                    )
                if not completions:
                    busy = executor.running() or executor.queued()
                    idle_polls = 0 if busy else idle_polls + 1
                    if idle_polls >= _STALL_POLLS:
                        missing = [
                            key
                            for key in tasks_by_key
                            if key not in collected
                        ]
                        raise RuntimeError(
                            "runner stalled: no workers busy and shards"
                            f" missing: {missing[:8]}"
                        )
        finally:
            executor.close()
        fanout_wall_s = time.perf_counter() - fanout_started
        executed_wall_s = sum(
            result.wall_s
            for task_key, result in collected.items()
            if shard_sources[task_key] == "computed"
        )

    if manifest is not None:
        manifest.finish_session()

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    total_wall_s = time.perf_counter() - started
    computed_wall_s = sum(
        entry["wall_s"] for entry in per_experiment.values()
        if not entry["cached"]
    )
    serial_equivalent_s = sum(
        entry["compute_wall_s"] for entry in per_experiment.values()
    )
    bench = {
        "generated_by": "python -m repro run-all",
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
        "speculation": dict(speculation) if speculate else None,
        "manifest": (
            str(manifest.path) if manifest is not None else None
        ),
        "experiments": {
            experiment_id: per_experiment[experiment_id]
            for experiment_id in experiment_ids
        },
    }

    if csv_root is not None:
        for experiment_id in experiment_ids:
            if experiment_id not in written_csvs:
                results[experiment_id].to_csv(
                    csv_root / f"{experiment_id}.csv"
                )
    if bench_path is not None:
        bench_path = Path(bench_path)
        bench_path.parent.mkdir(parents=True, exist_ok=True)
        bench_path.write_text(json.dumps(bench, indent=2) + "\n")
    return results, bench


def _handle_completion(
    completion: Completion,
    *,
    now: float,
    specs: dict[str, ExperimentSpec],
    seed: int,
    cache: Optional[ResultCache],
    manifest: Optional[RunManifest],
    executor: Executor,
    collected: dict[TaskKey, ShardResult],
    shard_sources: dict[TaskKey, str],
    queue_waits: dict[TaskKey, float],
    submit_times: dict[TaskKey, float],
    digests: dict[TaskKey, str],
    speculated: set[TaskKey],
    speculation: dict[str, int],
    remaining: dict[str, int],
    merge_experiment: Callable[[str], None],
    say: Callable[[str], None],
) -> None:
    """Fold one finished attempt into the run state.

    Duplicate attempts (speculation) are digest-checked against the
    winner; the first error cancels all outstanding work and re-raises.
    """
    task_key = completion.key
    experiment_id, index = task_key
    if task_key in collected:
        # The losing attempt of a speculated shard.  Errors here are
        # moot (the result is already secured); successes must match
        # the winner bit-for-bit — the determinism contract, asserted.
        if completion.result is not None:
            expected = digests.get(task_key) or shard_result_digest(
                collected[task_key]
            )
            actual = shard_result_digest(completion.result)
            speculation["checked"] += 1
            if actual != expected:
                raise RuntimeError(
                    f"speculative re-execution of {experiment_id}"
                    f"[{index}] diverged from the original result"
                    " — shard execution is nondeterministic"
                )
        return
    if completion.result is None:
        executor.cancel_pending()
        if completion.error is not None:
            raise completion.error
        raise ShardExecutionError(
            task_key, completion.error_detail or "unknown worker failure"
        )
    result = completion.result
    collected[task_key] = result
    shard_sources[task_key] = "computed"
    queue_wait = max(
        0.0, now - submit_times.get(task_key, now) - result.wall_s
    )
    queue_waits[task_key] = queue_wait
    won_by_twin = completion.attempt >= _SPECULATIVE_ATTEMPT
    if won_by_twin:
        speculation["wins"] += 1
        if manifest is not None:
            manifest.record_speculation_win()
    if task_key in speculated:
        digests[task_key] = shard_result_digest(result)
    retry_counts: dict[TaskKey, int] = getattr(executor, "retries", {})
    retries = retry_counts.get(task_key, 0)
    if retries:
        say(
            f"{experiment_id:18s} shard {index} retried after"
            f" {retries} worker loss(es)"
        )
    if manifest is not None:
        manifest.mark_shard_done(
            experiment_id,
            index,
            "computed",
            execute_s=result.wall_s,
            queue_wait_s=queue_wait,
            retries=retries,
            speculated=task_key in speculated,
        )
    if cache is not None:
        cache.put_shard(specs[experiment_id], seed, index, result)
    remaining[experiment_id] -= 1
    if remaining[experiment_id] == 0:
        merge_experiment(experiment_id)


def _launch_speculation(
    executor: Executor,
    tasks_by_key: dict[TaskKey, ShardTask],
    collected: dict[TaskKey, ShardResult],
    speculated: set[TaskKey],
    speculation: dict[str, int],
    submit_times: dict[TaskKey, float],
) -> None:
    """Duplicate the costliest still-running shards onto idle workers."""
    idle = executor.idle_capacity()
    if idle <= 0:
        return
    candidates = sorted(
        (
            key
            for key in executor.running()
            if key not in speculated and key not in collected
        ),
        key=lambda key: (-tasks_by_key[key].cost, key),
    )
    for key in candidates[:idle]:
        attempt = _SPECULATIVE_ATTEMPT + speculation["launched"]
        executor.submit(tasks_by_key[key], attempt)
        speculated.add(key)
        speculation["launched"] += 1
        # Leave the original submit time in place: queue-wait telemetry
        # tracks the shard, not the attempt.
        submit_times.setdefault(key, 0.0)
