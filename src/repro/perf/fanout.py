"""Synthetic skewed fan-out workload for the ``runner-fanout`` benchmark.

The scheduler's job is hardest when shard costs are *skewed*: a naive
submission-order schedule strands a straggler at the tail and leaves
the other workers idle, while cost-aware LPT ordering starts the
expensive shards first and packs the cheap ones into the gaps.  This
module provides a deterministic, CPU-bound experiment whose per-shard
cost is exactly its sweep value, so the benchmark can measure worker
utilisation (``scheduler_efficiency``) on a workload where scheduling
order genuinely matters.

The entry point is a normal ``param``-sharded experiment — it runs
through :func:`repro.runner.pool.run_experiments` on the work-queue
executor like any registry experiment — but it is synthetic on purpose:
its rows carry a checksum of the busy-compute, not science, and it is
not registered in the experiment registry.

No clocks are read here (the driver measures all spans); the busy loop
is pure deterministic arithmetic with no RNG.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.runner.registry import ExperimentSpec

__all__ = ["SKEWED_COSTS", "fanout_spec", "run_fanout_points"]

#: Deliberately skewed relative shard costs: one dominant straggler,
#: a mid tier, and a tail of cheap shards — the shape that punishes
#: submission-order scheduling hardest.  Sweep values double as LPT
#: cost estimates (see ``estimate_shard_cost``).
SKEWED_COSTS: tuple[int, ...] = (12, 9, 7, 5, 4, 3, 2, 2, 1, 1, 1, 1)

#: Busy-compute vector length; one "iteration" is one pass over this.
_CHUNK = 4096


def _busy(iterations: int) -> float:
    """Deterministic CPU-bound work: ``iterations`` vector transforms."""
    data = np.arange(_CHUNK, dtype=np.float64) / _CHUNK
    acc = 0.0
    for _ in range(iterations):
        data = np.sin(data) + 0.5
        acc += float(data[-1])
    return acc


def run_fanout_points(
    seed: int, costs: Sequence[int], scale: int = 50
) -> ExperimentResult:
    """Execute the busy-compute sweep points and tabulate checksums.

    ``costs`` arrives as a one-element tuple per shard (the ``param``
    sharder's contract); each point performs ``cost * scale``
    iterations, so wall time is proportional to the sweep value.
    """
    result = ExperimentResult(
        experiment_id="FANOUT",
        title="synthetic skewed fan-out (scheduler benchmark)",
        columns=("cost", "iterations", "checksum"),
    )
    for cost in costs:
        if int(cost) < 0:
            raise ValueError(f"fan-out cost must be non-negative: {cost}")
        iterations = int(cost) * scale
        checksum = _busy(iterations) + seed  # seed in rows, not in work
        result.add_row(int(cost), iterations, round(checksum, 6))
    return result


def fanout_spec(
    costs: Sequence[int] = SKEWED_COSTS, scale: int = 50
) -> ExperimentSpec:
    """A ``param``-sharded spec for the synthetic fan-out experiment."""
    return ExperimentSpec(
        experiment_id="FANOUT",
        entry="repro.perf.fanout:run_fanout_points",
        params=(("scale", scale),),
        sharder="param",
        shard_param="costs",
        shard_values=tuple(int(cost) for cost in costs),
    )
