"""Experiment execution on one machine: executors, sharding, cache.

The experiment suite is embarrassingly parallel — every (experiment,
seed) pair, and within several experiments every sweep point or
participant, is an independent work unit.  This package turns the flat
registry of experiment entry points into:

* :mod:`repro.runner.registry` — declarative :class:`ExperimentSpec`
  entries (import path + parameters + sharding strategy);
* :mod:`repro.runner.sharding` — deterministic decomposition of a spec
  into :class:`Shard` work units and order-stable merging of the partial
  results; any single shard is derivable in O(1) via
  :func:`make_shard`, so workers never materialize a million-entry
  shard list to run one unit;
* :mod:`repro.runner.executors` — the two executors behind one
  submit/poll contract, picked by the job count alone: ``inline`` for
  ``jobs == 1`` (the reference path) and ``workqueue`` for ``jobs >= 2``
  (long-lived mortal worker processes over shared queues, with crash
  detection and per-shard retry);
* :mod:`repro.runner.cache` — a content-addressed on-disk shard cache
  keyed by experiment spec, seed, shard index and a digest of the
  package sources; it makes an interrupted population-scale run
  resumable, and a warm run merges its cached shards like any other;
* :mod:`repro.runner.pool` — the scheduler over either executor: cost-aware
  LPT ordering, as-completed collection with per-experiment incremental
  merge, first-error cancellation, and the ``BENCH_runner.json`` timing
  report.

``repro run`` and ``repro run-all`` both execute through
:func:`run_experiments`.  The contract throughout: any job count and
any crash/retry interleaving produce byte-identical merged CSVs, and a
cached shard is never recomputed.
"""

from repro.runner.cache import ResultCache, source_digest
from repro.runner.executors import (
    ShardExecutionError,
    ShardTask,
    make_executor,
)
from repro.runner.pool import run_experiments
from repro.runner.registry import REGISTRY, ExperimentSpec
from repro.runner.sharding import (
    Shard,
    estimate_shard_cost,
    execute_shard,
    make_shard,
    make_shards,
    merge_shard_results,
    n_shards,
)

__all__ = [
    "REGISTRY",
    "ExperimentSpec",
    "ResultCache",
    "source_digest",
    "run_experiments",
    "ShardExecutionError",
    "ShardTask",
    "make_executor",
    "Shard",
    "make_shard",
    "make_shards",
    "n_shards",
    "estimate_shard_cost",
    "execute_shard",
    "merge_shard_results",
]
