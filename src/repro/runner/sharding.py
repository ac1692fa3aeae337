"""Deterministic experiment sharding and order-stable merging.

A :class:`Shard` is one independent work unit of an experiment.  Shards
are derived purely from ``(spec, seed)`` — never from worker identity or
execution order — so any process can recompute the shard list and the
merged result is identical for ``--jobs 1`` and ``--jobs N``.

Per-shard randomness: ``param`` shards reuse the experiment seed (each
sweep value builds its hardware fresh from it, exactly as the serial
loop does), while ``users`` shards get one seed per participant — either
from the experiment's own legacy derivation (``seeds_entry``) or from
:func:`shard_seed`, which derives one ``numpy.random.SeedSequence``
child per shard from ``(seed, SHARD_STREAM, index)`` alone, so streams
stay decorrelated no matter how many shards exist and any single shard
is derivable in O(1) — workers never materialize the other S-1 shards
to run one (:func:`make_shard`).  Speculative re-executions and
crash retries call the very same derivation with the very same index,
so a retried shard replays the original stream bit-for-bit.
``userblocks`` shards carry ``(start, count)`` ranges of participant
indices; every participant's streams derive from ``(seed, user_index)``
alone, so neither the block size nor the job count can affect the
merged aggregate's bytes.  ``devicebatch`` shards are the same block
shape over *device* indices — each block steps one
:class:`repro.core.batch.DeviceBatch` under a single kernel batch task,
and per-device streams derive from ``(seed, device_index)`` spawn keys.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.obs.metrics import SNAPSHOT_VERSION, merge_snapshots
from repro.obs.recorder import Recorder, use_recorder
from repro.runner.registry import ExperimentSpec, resolve_entry
from repro.sim import kernel
from repro.sim.streams import SHARD_STREAM

__all__ = [
    "Shard",
    "ShardResult",
    "shard_seed",
    "spawn_shard_seeds",
    "n_shards",
    "make_shard",
    "make_shards",
    "estimate_shard_cost",
    "shard_result_digest",
    "execute_shard",
    "merge_shard_results",
]


@dataclass(frozen=True)
class Shard:
    """One independent work unit of an experiment."""

    experiment_id: str
    index: int
    count: int
    #: Strategy-dependent: ``None`` (whole), a sweep value (param), or a
    #: participant seed (users).
    payload: Any = None


@dataclass
class ShardResult:
    """What one executed shard hands back to the merger."""

    experiment_id: str
    index: int
    #: An :class:`ExperimentResult` partial (whole/param) or a per-user
    #: outcome object (users).
    data: Any
    events: int
    wall_s: float
    #: Observability payload (:meth:`repro.obs.Recorder.payload`) when
    #: the shard ran observed, else ``None``.
    obs: Optional[dict[str, Any]] = None


def shard_seed(seed: int, index: int) -> int:
    """Shard ``index``'s seed, derived in O(1) from ``(seed, index)``.

    A ``SeedSequence`` child under the registered ``SHARD_STREAM``
    domain (rather than ``seed + i`` arithmetic) guarantees the child
    streams are statistically independent and stable under resharding:
    shard ``i``'s seed depends only on ``(seed, i)``, never on how many
    siblings exist.  Speculative and crash-retried re-executions of
    shard ``i`` call this with the same index, so they replay the
    original stream bit-for-bit.
    """
    child = np.random.SeedSequence(seed, spawn_key=(SHARD_STREAM, index))
    return int(child.generate_state(1, np.uint32)[0])


def spawn_shard_seeds(seed: int, n: int) -> list[int]:
    """``n`` decorrelated child seeds — ``shard_seed`` over ``range(n)``."""
    return [shard_seed(seed, index) for index in range(n)]


def n_shards(spec: ExperimentSpec, seed: int) -> int:
    """How many shards :func:`make_shards` would return, computed O(1)."""
    if spec.sharder == "whole":
        return 1
    if spec.sharder == "param":
        return len(spec.shard_values or ())
    if spec.sharder == "users":
        return int(dict(spec.params)[spec.n_users_param])
    if spec.sharder in ("userblocks", "devicebatch"):
        n_users = int(dict(spec.params)[spec.n_users_param])
        block = spec.users_per_shard
        return (n_users + block - 1) // block
    raise ValueError(
        f"{spec.experiment_id}: unknown sharder {spec.sharder!r}"
    )


def make_shard(spec: ExperimentSpec, seed: int, index: int) -> Shard:
    """Derive the single shard ``index`` without materializing the rest.

    O(1) for every sharding strategy except ``users`` specs with a
    legacy ``seeds_entry`` (a master-stream draw is inherently O(n) in
    the participant index; the population-scale sharders — and ``users``
    specs on the default :func:`shard_seed` derivation — never pay it).
    Workers use this to run one shard of a million-user study without
    rebuilding the full shard list.
    """
    count = n_shards(spec, seed)
    if not 0 <= index < count:
        raise IndexError(
            f"{spec.experiment_id}: shard index {index} out of"
            f" range({count})"
        )
    if spec.sharder == "whole":
        return Shard(spec.experiment_id, 0, 1)
    if spec.sharder == "param":
        values = spec.shard_values or ()
        return Shard(spec.experiment_id, index, count, payload=values[index])
    if spec.sharder == "users":
        if spec.seeds_entry is not None:
            user_seed = resolve_entry(spec.seeds_entry)(seed, count)[index]
        else:
            user_seed = shard_seed(seed, index)
        return Shard(spec.experiment_id, index, count, payload=user_seed)
    # userblocks / devicebatch (n_shards already rejected unknowns)
    total = int(dict(spec.params)[spec.n_users_param])
    block = spec.users_per_shard
    start = index * block
    return Shard(
        spec.experiment_id,
        index,
        count,
        payload=(start, min(block, total - start)),
    )


def make_shards(spec: ExperimentSpec, seed: int) -> list[Shard]:
    """Decompose a spec into its deterministic shard list."""
    count = n_shards(spec, seed)
    if spec.sharder == "users" and spec.seeds_entry is not None:
        # One resolve for the whole family: the legacy master-stream
        # derivation is O(n) per call, so make_shard in a loop would be
        # quadratic here.
        user_seeds = resolve_entry(spec.seeds_entry)(seed, count)
        return [
            Shard(spec.experiment_id, i, count, payload=user_seed)
            for i, user_seed in enumerate(user_seeds)
        ]
    return [make_shard(spec, seed, index) for index in range(count)]


def estimate_shard_cost(spec: ExperimentSpec, shard: Shard) -> float:
    """Relative cost estimate for LPT (longest-processing-time) ordering.

    Block sharders carry their block size in the payload — a partial
    trailing block is proportionally cheaper — while the other
    strategies are treated as unit work scaled by the spec's
    ``cost_hint``.  Only the *ordering* matters: the scheduler submits
    expensive shards first so stragglers start early, which is what
    keeps worker utilisation high on skewed workloads.
    """
    if spec.sharder in ("userblocks", "devicebatch"):
        _start, count = shard.payload
        return float(count) * spec.cost_hint
    if (
        spec.sharder == "param"
        and isinstance(shard.payload, (int, float))
        and not isinstance(shard.payload, bool)
    ):
        # Sweep values frequently *are* the size knob (island-map entry
        # counts, synthetic fan-out costs), so a numeric payload doubles
        # as the cost proxy; +1 keeps zero-valued sweep points schedulable.
        return (abs(float(shard.payload)) + 1.0) * spec.cost_hint
    return spec.cost_hint


def shard_result_digest(result: ShardResult) -> str:
    """Content digest of a shard's deterministic payload.

    Covers the data and the kernel event count — everything derived
    from the simulation — and deliberately excludes ``wall_s`` (host
    timing) and ``obs`` (never speculated; observed runs bypass both
    the cache and speculation).  Two executions of the same shard must
    digest identically; the speculation path asserts exactly that when
    a duplicate and its original both finish.
    """
    blob = pickle.dumps(
        (result.experiment_id, result.index, result.events, result.data),
        protocol=4,
    )
    return hashlib.sha256(blob).hexdigest()


def _dispatch_shard(spec: ExperimentSpec, seed: int, shard: Shard) -> Any:
    """Run the shard's entry point (shared by observed/plain paths)."""
    if spec.sharder == "whole":
        return spec.run_whole(seed)
    if spec.sharder == "param":
        kwargs = spec.kwargs()
        kwargs[spec.shard_param] = (shard.payload,)
        data = resolve_entry(spec.entry)(seed=seed, **kwargs)
        if spec.result_index is not None:
            data = data[spec.result_index]
        return data
    if spec.sharder == "users":
        kwargs = {
            name: value
            for name, value in spec.params
            if name != spec.n_users_param
        }
        return resolve_entry(spec.user_entry)(shard.payload, **kwargs)
    if spec.sharder in ("userblocks", "devicebatch"):
        kwargs = {
            name: value
            for name, value in spec.params
            if name != spec.n_users_param
        }
        start, count = shard.payload
        return resolve_entry(spec.user_entry)(seed, start, count, **kwargs)
    raise ValueError(
        f"{spec.experiment_id}: unknown sharder {spec.sharder!r}"
    )


def execute_shard(
    spec: ExperimentSpec,
    seed: int,
    shard: Shard,
    observe: bool = False,
) -> ShardResult:
    """Run one shard, measuring wall time and kernel events.

    With ``observe=True`` the shard runs under a fresh
    :class:`repro.obs.Recorder` and the result carries the payload.
    The recorder only collects sim-derived values (never the wall
    clock), so observed shard payloads merge byte-identically across
    any job count.
    """
    events_before = kernel.global_events_processed()
    # reprolint: allow REP001 (shard wall time for `repro run-all`'s timing report; read around the shard, never inside the sim)
    start = time.perf_counter()
    obs_payload: Optional[dict[str, Any]] = None
    if observe:
        recorder = Recorder()
        with use_recorder(recorder):
            data: Any = _dispatch_shard(spec, seed, shard)
        events = kernel.global_events_processed() - events_before
        recorder.counter("runner.shards")
        if events:
            recorder.observe(
                "runner.shard.events", float(events), low=1.0, high=1e9
            )
        obs_payload = recorder.payload()
    else:
        data = _dispatch_shard(spec, seed, shard)
        events = kernel.global_events_processed() - events_before
    # reprolint: allow REP001 (shard wall time for `repro run-all`'s timing report; read around the shard, never inside the sim)
    wall_s = time.perf_counter() - start
    return ShardResult(
        spec.experiment_id, shard.index, data, events, wall_s, obs_payload
    )


def merge_shard_results(
    spec: ExperimentSpec, results: Sequence[ShardResult]
) -> ExperimentResult:
    """Merge shard partials (any order) into the final result.

    Partials are sorted by shard index, so the merged rows match the
    serial sweep order regardless of completion order.  Sharded runs
    carry a provenance note; values are normalized to plain Python
    scalars so fresh and cache-loaded results are byte-identical.
    """
    ordered = sorted(results, key=lambda r: r.index)
    if spec.sharder in ("users", "userblocks", "devicebatch"):
        kwargs = {
            name: value
            for name, value in spec.params
            if name in spec.aggregate_params
        }
        merged = resolve_entry(spec.aggregate_entry)(
            [r.data for r in ordered], **kwargs
        )
    elif len(ordered) == 1:
        merged = ordered[0].data
    else:
        merged = ExperimentResult.merge([r.data for r in ordered])
    if len(ordered) > 1:
        merged.note(
            f"merged from {len(ordered)} shards "
            f"(sharded by {spec.sharder!r})"
        )
    final = merged.normalized()
    observed = [part for part in ordered if part.obs is not None]
    if observed:
        metrics: dict[str, Any] = {}
        spans: list[dict[str, Any]] = []
        for part in observed:
            assert part.obs is not None
            metrics = merge_snapshots(metrics, part.obs["metrics"])
            spans.extend(
                {**record, "shard": part.index}
                for record in part.obs["spans"]
            )
        final.obs = {
            "version": SNAPSHOT_VERSION,
            "metrics": metrics,
            "spans": spans,
        }
    return final
