"""ARENA — the cross-technique tournament of open question 1 (§7).

"Is distance-based scrolling faster, equal or slower than other
scrolling techniques[?]" — the arena answers it at population scale:
every registered :data:`repro.baselines.ALL_TECHNIQUES` entry runs the
same ScrollTest-style task battery (short-near / short-far / long-menu
/ error-recovery) over the same persona population, and a ranked
leaderboard falls out.

Execution mirrors the population user study (``userblocks`` sharding):
participant ``u`` running technique ``t`` draws every trial from the
dedicated ``(seed, ARENA_STREAM, u, roster_index(t))`` stream, so any
block partition of the population — and therefore ``--jobs`` — merges
byte-identically, and dropping techniques from a run never perturbs the
remaining techniques' bits.

Fault realism rides along: every ``fault_every``-th participant's
session schedules a :class:`~repro.baselines.TechniqueFault` window
over the middle third of their trial sequence on each technique's
first declared fault surface (grip-loss, tracker-dropout, pad-stuck).
Techniques degrade gracefully inside the window; the leaderboard notes
quantify the slowdown.

Speed, accuracy, error recovery and fatigue fold into the exact
streaming aggregators of :mod:`repro.analysis.stats`, O(1) state per
technique × scenario no matter the population.  ``docs/ARENA.md``
shows this experiment's registry run (``repro run ARENA --seed 0``),
rendered by ``scripts/generate_experiments_md.py`` from the same pass as
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any, Optional, Sequence

from repro.analysis.stats import CellCounter, QuantileSketch, StreamingMoments
from repro.baselines import ALL_TECHNIQUES, TechniqueFault
from repro.baselines.base import OperatorTimes
from repro.experiments.harness import ExperimentResult
from repro.interaction.personas import parse_spec, persona_for_user
from repro.interaction.tasks import (
    battery as resolve_battery,
    scenario_distances,
)
from repro.sim.streams import ARENA_STREAM, stream_rng

__all__ = [
    "ARENA_ROSTER",
    "ArenaAggregate",
    "arena_fault_window",
    "run_arena_block",
    "finalize_arena",
    "run_arena",
]

#: Canonical technique order.  Spawn keys use a technique's index in
#: *this* tuple (not its position in a run's subset), so a subset run
#: replays exactly the bits a full run gives those techniques.
ARENA_ROSTER: tuple[str, ...] = tuple(sorted(ALL_TECHNIQUES))

#: Trial-time quantile sketch spec (same philosophy as the user study:
#: fixed log-spaced edges, never data-adaptive).
_TIME_SKETCH = (1e-2, 1e4, 32)


def _resolve_techniques(
    techniques: Optional[Sequence[str]],
) -> tuple[str, ...]:
    """Validated canonical technique tuple (``None`` = full roster)."""
    if techniques is None:
        return ARENA_ROSTER
    resolved = tuple(techniques)
    for key in resolved:
        if key not in ALL_TECHNIQUES:
            raise ValueError(
                f"unknown technique {key!r}; "
                f"registered: {', '.join(ARENA_ROSTER)}"
            )
    if len(set(resolved)) != len(resolved):
        raise ValueError(f"duplicate technique in {resolved}")
    return resolved


def arena_fault_window(
    technique: str, total_trials: int
) -> tuple[TechniqueFault, ...]:
    """The session fault plan for one faulted participant.

    A single window on the technique's first declared fault surface,
    covering the middle third of the nominal trial sequence — late
    enough that clean baseline trials exist, early enough that
    post-fault recovery trials exist too.  Techniques without a fault
    seam get no window (idealized models stay idealized).
    """
    info = ALL_TECHNIQUES[technique].info
    if info is None or not info.fault_surfaces:
        return ()
    start = total_trials // 3
    end = max(start + 1, (2 * total_trials) // 3)
    return (TechniqueFault(info.fault_surfaces[0], start, end),)


@dataclass
class _TechScenarioStats:
    """Streaming per-(technique, scenario) trial statistics."""

    times: StreamingMoments
    errors: StreamingMoments
    operations: StreamingMoments
    time_sketch: QuantileSketch

    @classmethod
    def fresh(cls) -> "_TechScenarioStats":
        return cls(
            times=StreamingMoments(),
            errors=StreamingMoments(),
            operations=StreamingMoments(),
            time_sketch=QuantileSketch(*_TIME_SKETCH),
        )

    def add(self, duration_s: float, errors: float, operations: float) -> None:
        self.times.add(duration_s)
        self.errors.add(errors)
        self.operations.add(operations)
        self.time_sketch.add(duration_s)

    def merge(self, other: "_TechScenarioStats") -> "_TechScenarioStats":
        return _TechScenarioStats(
            times=self.times.merge(other.times),
            errors=self.errors.merge(other.errors),
            operations=self.operations.merge(other.operations),
            time_sketch=self.time_sketch.merge(other.time_sketch),
        )

    def snapshot(self) -> dict[str, Any]:
        return {
            "times": self.times.snapshot(),
            "errors": self.errors.snapshot(),
            "operations": self.operations.snapshot(),
            "time_sketch": self.time_sketch.snapshot(),
        }


class ArenaAggregate:
    """Streaming, exactly-mergeable aggregate of one arena tournament.

    O(1) state per technique × scenario regardless of the population:
    exact moments for times/errors/operations, a fixed-bin quantile
    sketch per cell, per-technique recovery and fault-window moments,
    and a persona-cell counter.  ``merge()`` is exactly associative and
    commutative with matching layouts, so any block partition of the
    same population serializes to the same :meth:`snapshot` bytes.
    """

    __slots__ = (
        "techniques",
        "segments",
        "n_users",
        "stats",
        "recovery",
        "fault_users",
        "fault_times",
        "cell_users",
    )

    def __init__(
        self, techniques: tuple[str, ...], segments: tuple[str, ...]
    ) -> None:
        if not techniques:
            raise ValueError("the arena needs at least one technique")
        if not segments:
            raise ValueError("the arena needs at least one scenario")
        self.techniques = tuple(techniques)
        self.segments = tuple(segments)
        self.n_users = 0
        self.stats = [
            [_TechScenarioStats.fresh() for _ in segments] for _ in techniques
        ]
        self.recovery = [StreamingMoments() for _ in techniques]
        self.fault_users = [0 for _ in techniques]
        self.fault_times = [StreamingMoments() for _ in techniques]
        self.cell_users = CellCounter()

    def merge(self, other: "ArenaAggregate") -> "ArenaAggregate":
        """Combined aggregate (operands unchanged; layouts must match)."""
        if (
            self.techniques != other.techniques
            or self.segments != other.segments
        ):
            raise ValueError(
                f"arena layouts differ: {self.techniques}×{self.segments} "
                f"vs {other.techniques}×{other.segments}"
            )
        merged = ArenaAggregate(self.techniques, self.segments)
        merged.n_users = self.n_users + other.n_users
        for t in range(len(self.techniques)):
            for s in range(len(self.segments)):
                merged.stats[t][s] = self.stats[t][s].merge(other.stats[t][s])
            merged.recovery[t] = self.recovery[t].merge(other.recovery[t])
            merged.fault_users[t] = self.fault_users[t] + other.fault_users[t]
            merged.fault_times[t] = self.fault_times[t].merge(
                other.fault_times[t]
            )
        merged.cell_users = self.cell_users.merge(other.cell_users)
        return merged

    def technique_overall(
        self, t: int
    ) -> tuple[StreamingMoments, StreamingMoments, StreamingMoments, QuantileSketch]:
        """Exact cross-scenario (times, errors, operations, sketch)."""
        times = reduce(
            lambda a, b: a.merge(b),
            (cell.times for cell in self.stats[t]),
            StreamingMoments(),
        )
        errors = reduce(
            lambda a, b: a.merge(b),
            (cell.errors for cell in self.stats[t]),
            StreamingMoments(),
        )
        operations = reduce(
            lambda a, b: a.merge(b),
            (cell.operations for cell in self.stats[t]),
            StreamingMoments(),
        )
        sketch = reduce(
            lambda a, b: a.merge(b),
            (cell.time_sketch for cell in self.stats[t]),
            QuantileSketch(*_TIME_SKETCH),
        )
        return times, errors, operations, sketch

    def snapshot(self) -> dict[str, Any]:
        """Canonical JSON-safe state (sorted keys, exact sums).

        ``json.dumps(snapshot(), sort_keys=True)`` is the byte string
        the shard-invariance tests compare.
        """
        return {
            "techniques": list(self.techniques),
            "segments": list(self.segments),
            "n_users": self.n_users,
            "stats": [
                [cell.snapshot() for cell in row] for row in self.stats
            ],
            "recovery": [m.snapshot() for m in self.recovery],
            "fault_users": list(self.fault_users),
            "fault_times": [m.snapshot() for m in self.fault_times],
            "cells": {
                cell: self.cell_users.get(cell)
                for cell in self.cell_users.keys()
            },
        }


def run_arena_block(
    seed: int,
    start: int,
    count: int,
    personas: str = "full",
    battery: str = "scrolltest",
    techniques: Optional[Sequence[str]] = None,
    fault_every: int = 4,
) -> ArenaAggregate:
    """Run participants ``[start, start+count)`` through every technique.

    The arena shard unit: each participant's persona derives from the
    persona engine's streams and each (participant, technique) session
    from ``(seed, ARENA_STREAM, user, roster_index)`` alone, so any
    block partition of the population merges to identical bytes.
    """
    spec = parse_spec(personas)
    scenarios = resolve_battery(battery)
    keys = _resolve_techniques(techniques)
    aggregate = ArenaAggregate(keys, tuple(s.name for s in scenarios))
    total_trials = 0
    for scenario in scenarios:
        total_trials += scenario.n_trials
    for user_index in range(start, start + count):
        persona = persona_for_user(seed, user_index, spec)
        aggregate.n_users += 1
        aggregate.cell_users.add(persona.cell())
        glove = persona.glove_model()
        profile_rng = stream_rng(seed, ARENA_STREAM, user_index)
        profile = persona.motor_profile(profile_rng)
        times = OperatorTimes(
            reaction_s=profile.reaction_time_s,
            keypress_s=profile.button_press_s,
            verify_dwell_s=profile.verify_dwell_s,
        )
        faulted_user = fault_every > 0 and user_index % fault_every == 0
        for t, key in enumerate(keys):
            roster_index = ARENA_ROSTER.index(key)
            rng = stream_rng(seed, ARENA_STREAM, user_index, roster_index)
            faults = (
                arena_fault_window(key, total_trials) if faulted_user else ()
            )
            technique = ALL_TECHNIQUES[key](
                rng=rng, glove=glove, times=times, faults=faults
            )
            if faults:
                aggregate.fault_users[t] += 1
            for s, scenario in enumerate(scenarios):
                for distance in scenario_distances(scenario, rng):
                    target = min(distance, scenario.menu_entries - 1)
                    trial = technique.select(0, target, scenario.menu_entries)
                    duration = trial.duration_s
                    operations = trial.operations
                    if scenario.error_recovery:
                        # A deliberate wrong activation the participant
                        # backs out of: one corrective selection from
                        # the neighbouring entry.
                        recovery = technique.select(
                            max(target - 1, 0), target, scenario.menu_entries
                        )
                        aggregate.recovery[t].add(recovery.duration_s)
                        duration += recovery.duration_s
                        operations += recovery.operations
                    aggregate.stats[t][s].add(
                        duration, float(trial.errors), float(operations)
                    )
                    if faults:
                        aggregate.fault_times[t].add(duration)
    return aggregate


def finalize_arena(
    aggregates: list[ArenaAggregate],
    n_users: int,
    personas: str = "full",
    battery: str = "scrolltest",
    techniques: Optional[Sequence[str]] = None,
    fault_every: int = 4,
) -> ExperimentResult:
    """Merge block aggregates into the ranked leaderboard.

    One row per technique, ranked by the composite score
    ``mean_trial_s * (1 + error_rate)`` (lower is better): raw speed
    penalized by wrong activations, the ScrollTest speed/accuracy
    trade-off in a single sortable number.  Per-scenario winners, the
    fault-window slowdown and the persona-cell coverage land in notes.
    """
    keys = _resolve_techniques(techniques)
    merged = reduce(lambda a, b: a.merge(b), aggregates)
    if merged.n_users != n_users:
        raise ValueError(
            f"aggregates cover {merged.n_users} users, expected {n_users}"
        )
    if merged.techniques != keys:
        raise ValueError(
            f"aggregates cover techniques {merged.techniques}, "
            f"expected {keys}"
        )
    result = ExperimentResult(
        experiment_id="ARENA",
        title=(
            f"Technique arena: {len(keys)} techniques, {n_users} personas "
            f"({personas}), battery {battery}"
        ),
        columns=(
            "rank",
            "technique",
            "score",
            "mean_trial_s",
            "p50_trial_s",
            "error_rate",
            "ops_per_trial",
            "recovery_s",
            "one_handed",
            "glove_ok",
        ),
    )
    scored = []
    for t, key in enumerate(keys):
        times, errors, operations, sketch = merged.technique_overall(t)
        mean_time = float(times.mean or 0.0)
        error_rate = float(errors.mean or 0.0)
        score = mean_time * (1.0 + error_rate)
        scored.append((score, key, t, mean_time, error_rate, operations, sketch))
    scored.sort(key=lambda entry: (entry[0], entry[1]))
    for rank, (score, key, t, mean_time, error_rate, operations, sketch) in (
        enumerate(scored, start=1)
    ):
        cls = ALL_TECHNIQUES[key]
        result.add_row(
            rank,
            key,
            score,
            mean_time,
            float(sketch.quantile(0.5) or 0.0),
            error_rate,
            float(operations.mean or 0.0),
            float(merged.recovery[t].mean or 0.0),
            cls.one_handed,
            cls.glove_compatible,
        )
    for s, segment in enumerate(merged.segments):
        best = min(
            (
                (float(merged.stats[t][s].times.mean or 0.0), key)
                for t, key in enumerate(keys)
            ),
        )
        result.note(
            f"fastest on {segment}: {best[1]} "
            f"(mean {best[0]:.2f} s/trial)"
        )
    for t, key in enumerate(keys):
        if merged.fault_users[t] == 0:
            continue
        info = ALL_TECHNIQUES[key].info
        surface = info.fault_surfaces[0] if info else "?"
        times, _errors, _operations, _sketch = merged.technique_overall(t)
        result.note(
            f"{key} under {surface} windows "
            f"({merged.fault_users[t]} faulted sessions): "
            f"{float(merged.fault_times[t].mean or 0.0):.2f} s/trial vs "
            f"{float(times.mean or 0.0):.2f} overall — degraded, "
            "never failed"
        )
    result.note(
        f"streaming aggregation over {len(merged.cell_users.keys())} "
        "persona cells; aggregator state is O(1) in the user count"
    )
    return result


def run_arena(
    seed: int = 0,
    n_users: int = 16,
    personas: str = "full",
    battery: str = "scrolltest",
    techniques: Optional[Sequence[str]] = None,
    fault_every: int = 4,
    users_per_shard: int = 4,
) -> ExperimentResult:
    """Serial driver of the arena (the ``--jobs 1`` path).

    Walks the identical block decomposition the sharded runner uses and
    folds block aggregates in order, so serial and parallel runs are
    byte-identical by construction.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    aggregates = [
        run_arena_block(
            seed,
            start,
            min(users_per_shard, n_users - start),
            personas=personas,
            battery=battery,
            techniques=techniques,
            fault_every=fault_every,
        )
        for start in range(0, n_users, users_per_shard)
    ]
    return finalize_arena(
        aggregates,
        n_users,
        personas=personas,
        battery=battery,
        techniques=techniques,
        fault_every=fault_every,
    )
