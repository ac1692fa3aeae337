"""The benchmark's three workloads: the program's own batch use.

Each workload is a closed loop over *units*: one worker process starts a
unit only after the previous one has returned.  A unit is one complete
call into the program on one pinned input, and it returns the output
digests the benchmark checks against ``digests.json``.

* ``arena``  -- one ARENA tournament of ``ARENA_USERS`` participants over
  the full 9-technique roster, ScrollTest battery, ``full`` personas and
  ``fault_every=4``, walked exactly as ``run_arena`` walks it
  (``repro run ARENA --users 4 --jobs 1``).
* ``study``  -- one population STUDY1 run of ``STUDY_USERS`` participants
  through ``run_user_block`` + ``finalize_scaled_study``, exactly as
  ``run_scaled_user_study`` walks it (``repro run STUDY1 --users 4096
  --jobs 1``).
* ``suite``  -- every ``REGISTRY`` experiment through
  ``run_experiments(ids, seed, jobs=2, cache=None)``
  (``repro run-all --jobs 2 --no-cache``).

Inputs come from the benchmark seed: unit ``k`` of a run with seed ``s``
uses experiment seed ``(s + k) % POOL`` of the workload, and every
experiment seed in the pool has its digest pinned, so every unit of
every run is checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Optional

#: Participants per arena unit: one ``users_per_shard=4`` ARENA block.
ARENA_USERS = 4
#: Participants per study unit: one ``users_per_shard=4096`` STUDY1 block.
STUDY_USERS = 4096
#: Worker processes of the ``suite`` unit (the host has 2 cores).
SUITE_JOBS = 2


def sha256(*chunks: bytes) -> str:
    """Hex digest over the concatenated byte chunks."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def snapshot_bytes(aggregate: Any) -> bytes:
    """Canonical bytes of an aggregate's exact ``snapshot()``."""
    return json.dumps(aggregate.snapshot(), sort_keys=True).encode()


@dataclass(frozen=True)
class UnitOutput:
    """What one unit produced: digests per checked output, and extras."""

    #: Output name -> sha256 hex digest (one entry per checked output).
    digests: dict[str, str]
    #: Participants the unit simulated.
    users: int
    #: ``run_experiments`` timing report (``suite`` only).
    report: Optional[dict] = None


@dataclass(frozen=True)
class Workload:
    """A named closed-loop workload over a pool of pinned inputs."""

    name: str
    #: Number of pinned experiment seeds; unit ``k`` of a run with seed
    #: ``s`` uses experiment seed ``(s + k) % pool``.
    pool: int
    #: ``(experiment_seed, **options) -> UnitOutput``; imports the program.
    run: Callable[..., UnitOutput]

    def experiment_seed(self, seed: int, unit: int) -> int:
        return (seed + unit) % self.pool


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------
def arena_unit(experiment_seed: int, n_users: int = ARENA_USERS) -> UnitOutput:
    """One ARENA tournament, walked block by block like ``run_arena``."""
    from repro.experiments.arena import finalize_arena, run_arena_block

    users_per_shard = 4  # run_arena's default block width
    aggregates = [
        run_arena_block(
            experiment_seed, start, min(users_per_shard, n_users - start)
        )
        for start in range(0, n_users, users_per_shard)
    ]
    result = finalize_arena(aggregates, n_users)
    merged = reduce(lambda a, b: a.merge(b), aggregates)
    return UnitOutput(
        digests={"ARENA": sha256(snapshot_bytes(merged), result.csv_bytes())},
        users=n_users,
    )


def study_unit(experiment_seed: int, n_users: int = STUDY_USERS) -> UnitOutput:
    """One population STUDY1 run, walked like ``run_scaled_user_study``."""
    from repro.experiments.user_study import (
        finalize_scaled_study,
        run_user_block,
    )

    users_per_shard = 4096  # the registry's userblocks width
    aggregates = [
        run_user_block(
            experiment_seed, start, min(users_per_shard, n_users - start)
        )
        for start in range(0, n_users, users_per_shard)
    ]
    result = finalize_scaled_study(aggregates, n_users)
    merged = reduce(lambda a, b: a.merge(b), aggregates)
    return UnitOutput(
        digests={"STUDY1": sha256(snapshot_bytes(merged), result.csv_bytes())},
        users=n_users,
    )


def suite_ids() -> list[str]:
    """Every registered experiment id, in registry order."""
    from repro.runner.registry import REGISTRY

    return list(REGISTRY)


def suite_participants(ids: list[str]) -> int:
    """Simulated participants across the suite (``n_users`` params)."""
    from repro.runner.registry import REGISTRY

    return sum(int(dict(REGISTRY[i].params).get("n_users", 0)) for i in ids)


def suite_unit(
    experiment_seed: int,
    jobs: int = SUITE_JOBS,
    ids: Optional[list[str]] = None,
) -> UnitOutput:
    """One ``run-all --no-cache`` pass; one digest per experiment CSV."""
    from repro.runner.pool import run_experiments

    ids = suite_ids() if ids is None else ids
    results, report = run_experiments(
        ids, seed=experiment_seed, jobs=jobs, cache=None
    )
    return UnitOutput(
        digests={i: sha256(results[i].csv_bytes()) for i in ids},
        users=suite_participants(ids),
        report=report,
    )


WORKLOADS: dict[str, Workload] = {
    "arena": Workload("arena", pool=32, run=arena_unit),
    "study": Workload("study", pool=32, run=study_unit),
    "suite": Workload("suite", pool=16, run=suite_unit),
}


def setup(name: str) -> Workload:
    """Import the program's modules a workload needs and return it.

    This is the benchmark's set-up step: it runs once per worker process
    before the first timed unit, so ``setup_s`` covers interpreter start,
    these imports and workload construction.
    """
    workload = WORKLOADS[name]
    if name == "arena":
        import repro.experiments.arena  # noqa: F401
    elif name == "study":
        import repro.experiments.user_study  # noqa: F401
    else:
        import repro.runner.pool  # noqa: F401
        from repro.runner.registry import REGISTRY, resolve_entry

        # Resolve every entry point now, so no experiment module is
        # first imported inside a timed (or traced) pass.
        for spec in REGISTRY.values():
            for entry in (spec.entry, spec.user_entry, spec.aggregate_entry,
                          spec.seeds_entry):
                if entry is not None:
                    resolve_entry(entry)
    return workload
