"""STUDY1 — the initial user study of Section 6, quantified and scaled.

The paper's protocol: "We presented our new interaction technique to
several people, students, colleagues and people without direct technical
background.  We handed them the DistScroll device and observed their
interactions.  Even when no hints were given, the manner of operation was
promptly discovered.  Shortly after knowing the relation between menu
entry selection and distance, all users were able to nearly errorless
use the device."

The reproduction runs N simulated participants through the same arc:
an unguided discovery phase on the fictive phone menu, then blocks of
selection trials.  Reported per block: error rate (wrong activations per
trial), mean selection time, and the fraction of error-free users — the
paper's qualitative claims map to (a) discovery within tens of seconds
without hints and (b) block-2+ error rates near zero.

Two execution scales share one aggregation layer:

* **classic** (`run_user_study`, default n_users=12) drives the full
  closed-loop :class:`~repro.interaction.user.SimulatedUser` against a
  real simulated device — high fidelity, ~seconds per participant;
* **population** (`run_scaled_user_study`, ``--users N``) draws each
  participant from the :mod:`~repro.interaction.personas` engine and
  samples trials from the same Fitts/motor model analytically — no
  event kernel, ~tens of microseconds per participant, CPU-bound to
  millions of users.

Both paths fold per-user records into a :class:`StudyAggregate` built
from the streaming primitives in :mod:`repro.analysis.stats`: exact
mergeable moments, fixed-bin quantile sketches and per-persona-cell
counters.  Aggregator state is O(1) in the user count and ``merge()``
is exactly associative and commutative, so the sharded runner combines
shard aggregates byte-identically regardless of ``--jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Any, Optional

import numpy as np

from repro.analysis.stats import CellCounter, QuantileSketch, StreamingMoments
from repro.core.config import DeviceConfig
from repro.experiments.harness import ExperimentResult
from repro.interaction.personas import (
    Persona,
    parse_spec,
    persona_for_user,
    user_rng,
)
from repro.interaction.tasks import (
    Scenario,
    battery as resolve_battery,
    random_targets,
    scenario_distances,
)
from repro.interaction.user import SimulatedUser

__all__ = [
    "run_user_study",
    "user_study_seeds",
    "run_single_user",
    "aggregate_user_study",
    "StudyAggregate",
    "simulate_user_fast",
    "run_user_block",
    "finalize_scaled_study",
    "run_scaled_user_study",
    "UserOutcome",
    "STUDY_MENU_LABELS",
]

#: Top level of the fictive phone menu used in the study (flat for the
#: selection blocks; the hierarchical tasks live in the examples).
STUDY_MENU_LABELS = [
    "Messages",
    "Call register",
    "Contacts",
    "Settings",
    "Gallery",
    "Organiser",
    "Games",
    "Extras",
    "Services",
    "Profiles",
]


@dataclass
class UserOutcome:
    """Everything one simulated participant contributes to the tables.

    The parallel runner farms one :func:`run_single_user` call per shard
    and reassembles with :func:`aggregate_user_study`; serial execution
    walks the same two functions, so both paths are numerically identical.
    The population path produces the same shape, with one entry per
    battery scenario instead of per block.
    """

    discovered: bool
    time_to_discovery_s: float
    exploratory_movements: int
    block_errors: list[float]
    block_times: list[float]
    block_subs: list[float]


def user_study_seeds(seed: int, n_users: int) -> list[int]:
    """Per-participant seeds, drawn from one master stream.

    Kept as sequential draws from ``default_rng(seed)`` (rather than
    ``SeedSequence`` spawning) so the committed STUDY1 numbers are
    unchanged; each participant is fully determined by their own seed.
    """
    master = np.random.default_rng(seed)
    return [int(master.integers(2**31)) for _ in range(n_users)]


def run_single_user(
    user_seed: int,
    n_blocks: int,
    trials_per_block: int,
    config: DeviceConfig | None = None,
    persona: Optional[Persona] = None,
) -> UserOutcome:
    """One participant's discovery phase plus all selection blocks.

    With a ``persona`` the participant's motor profile, glove,
    handedness and tremor come from the persona engine; without one the
    profile is drawn from the base population (the committed STUDY1
    numbers).
    """
    from repro.core.device import DistScroll
    from repro.core.menu import build_menu

    rng = np.random.default_rng(user_seed)
    device = DistScroll(
        build_menu(STUDY_MENU_LABELS), config=config, seed=user_seed
    )
    if persona is None:
        user = SimulatedUser(device=device, rng=rng)
    else:
        user = SimulatedUser.for_persona(device, rng, persona)
    device.run_for(0.5)

    discovery = user.discover()

    block_errors: list[float] = []
    block_times: list[float] = []
    block_subs: list[float] = []
    for _block in range(n_blocks):
        targets = random_targets(
            len(STUDY_MENU_LABELS), trials_per_block, rng, min_separation=2
        )
        errors = 0
        times = []
        subs = []
        for target in targets:
            trial = user.select_entry(target)
            errors += trial.wrong_activations
            times.append(trial.duration_s)
            subs.append(trial.submovements)
            while device.depth > 0:
                device.click("back")
        block_errors.append(errors / trials_per_block)
        block_times.append(float(np.mean(times)))
        block_subs.append(float(np.mean(subs)))
    return UserOutcome(
        discovered=discovery.discovered,
        time_to_discovery_s=discovery.time_to_discovery_s,
        exploratory_movements=discovery.exploratory_movements,
        block_errors=block_errors,
        block_times=block_times,
        block_subs=block_subs,
    )


# ---------------------------------------------------------------------------
# streaming aggregation
# ---------------------------------------------------------------------------

#: Quantile-sketch bin specs (matching the repro.obs histogram layout
#: philosophy: fixed log-spaced edges, never data-adaptive).
_DISCOVERY_SKETCH = (0.05, 1e3, 32)
_MOVEMENTS_SKETCH = (0.5, 1e4, 32)
_TRIAL_SKETCH = (1e-2, 1e4, 32)


class StudyAggregate:
    """Streaming, exactly-mergeable aggregate of one user study.

    Holds O(1) state per segment (block or battery scenario) no matter
    how many participants stream through: exact
    :class:`~repro.analysis.stats.StreamingMoments` for the table
    columns, fixed-bin :class:`~repro.analysis.stats.QuantileSketch`
    for the medians/percentiles, and per-persona-cell counters/moments
    for the scenario × persona report.  ``merge()`` is exactly
    associative and commutative with a fresh instance as identity, so
    any partition of the population over shards merges to the same
    bytes (see :meth:`snapshot`).
    """

    __slots__ = (
        "segments",
        "n_users",
        "discovered",
        "discovery_time",
        "discovery_sketch",
        "exploratory_sketch",
        "seg_errors",
        "seg_times",
        "seg_subs",
        "seg_errorless",
        "seg_time_sketch",
        "cell_users",
        "cell_errors",
        "cell_times",
    )

    def __init__(self, segments: tuple[str, ...]) -> None:
        if not segments:
            raise ValueError("a study needs at least one segment")
        self.segments = tuple(segments)
        self.n_users = 0
        self.discovered = 0
        self.discovery_time = StreamingMoments()
        self.discovery_sketch = QuantileSketch(*_DISCOVERY_SKETCH)
        self.exploratory_sketch = QuantileSketch(*_MOVEMENTS_SKETCH)
        self.seg_errors = [StreamingMoments() for _ in segments]
        self.seg_times = [StreamingMoments() for _ in segments]
        self.seg_subs = [StreamingMoments() for _ in segments]
        self.seg_errorless = [0 for _ in segments]
        self.seg_time_sketch = [
            QuantileSketch(*_TRIAL_SKETCH) for _ in segments
        ]
        self.cell_users = CellCounter()
        self.cell_errors: dict[str, StreamingMoments] = {}
        self.cell_times: dict[str, StreamingMoments] = {}

    @classmethod
    def for_blocks(cls, n_blocks: int) -> "StudyAggregate":
        """The classic study layout: one segment per learning block."""
        return cls(tuple(f"block {i + 1}" for i in range(n_blocks)))

    def add_outcome(
        self, outcome: UserOutcome, cell: Optional[str] = None
    ) -> None:
        """Fold one participant's record into the aggregate."""
        if len(outcome.block_errors) != len(self.segments):
            raise ValueError(
                f"outcome has {len(outcome.block_errors)} segments, "
                f"aggregate expects {len(self.segments)}"
            )
        self.n_users += 1
        if outcome.discovered:
            self.discovered += 1
            self.discovery_time.add(outcome.time_to_discovery_s)
            self.discovery_sketch.add(outcome.time_to_discovery_s)
        self.exploratory_sketch.add(float(outcome.exploratory_movements))
        segments = zip(
            self.seg_errors,
            self.seg_times,
            self.seg_subs,
            self.seg_time_sketch,
            outcome.block_errors,
            outcome.block_times,
            outcome.block_subs,
        )
        errorless = self.seg_errorless
        for index, (errors, times, subs, sketch, error, time, sub) in (
            enumerate(segments)
        ):
            errors.add(error)
            times.add(time)
            subs.add(sub)
            if error == 0:
                errorless[index] += 1
            sketch.add(time)
        if cell is not None:
            self.cell_users.add(cell)
            # Fixed-order per-user sums over one outcome's block lists:
            # the summation order is pinned by the segment order, and the
            # per-cell means they feed go through StreamingMoments.
            user_error = sum(outcome.block_errors) / len(self.segments)  # reprolint: allow REP007 (fixed segment order, single user)
            user_time = sum(outcome.block_times) / len(self.segments)  # reprolint: allow REP007 (fixed segment order, single user)
            cell_errors = self.cell_errors.get(cell)
            if cell_errors is None:
                cell_errors = self.cell_errors[cell] = StreamingMoments()
                self.cell_times[cell] = StreamingMoments()
            cell_errors.add(user_error)
            self.cell_times[cell].add(user_time)

    def merge(self, other: "StudyAggregate") -> "StudyAggregate":
        """Combined aggregate (operands unchanged; segments must match)."""
        if self.segments != other.segments:
            raise ValueError(
                f"segment layouts differ: {self.segments} vs {other.segments}"
            )
        merged = StudyAggregate(self.segments)
        merged.n_users = self.n_users + other.n_users
        merged.discovered = self.discovered + other.discovered
        merged.discovery_time = self.discovery_time.merge(
            other.discovery_time
        )
        merged.discovery_sketch = self.discovery_sketch.merge(
            other.discovery_sketch
        )
        merged.exploratory_sketch = self.exploratory_sketch.merge(
            other.exploratory_sketch
        )
        for index in range(len(self.segments)):
            merged.seg_errors[index] = self.seg_errors[index].merge(
                other.seg_errors[index]
            )
            merged.seg_times[index] = self.seg_times[index].merge(
                other.seg_times[index]
            )
            merged.seg_subs[index] = self.seg_subs[index].merge(
                other.seg_subs[index]
            )
            merged.seg_errorless[index] = (
                self.seg_errorless[index] + other.seg_errorless[index]
            )
            merged.seg_time_sketch[index] = self.seg_time_sketch[
                index
            ].merge(other.seg_time_sketch[index])
        merged.cell_users = self.cell_users.merge(other.cell_users)
        for source in (self, other):
            for cell, moments in source.cell_errors.items():
                existing = merged.cell_errors.get(cell)
                merged.cell_errors[cell] = (
                    moments if existing is None else existing.merge(moments)
                )
            for cell, moments in source.cell_times.items():
                existing = merged.cell_times.get(cell)
                merged.cell_times[cell] = (
                    moments if existing is None else existing.merge(moments)
                )
        return merged

    def late_error_mean(self) -> Optional[float]:
        """Exact grand mean error rate over every segment after the first."""
        if len(self.segments) < 2:
            return None
        combined = reduce(
            lambda a, b: a.merge(b), self.seg_errors[1:], StreamingMoments()
        )
        return combined.mean

    def snapshot(self) -> dict[str, Any]:
        """Canonical JSON-safe state (sorted keys, exact sums).

        ``json.dumps(snapshot(), sort_keys=True)`` is the byte string
        the shard-invariance tests compare: any partition of the same
        population must serialize identically.
        """
        return {
            "segments": list(self.segments),
            "n_users": self.n_users,
            "discovered": self.discovered,
            "discovery_time": self.discovery_time.snapshot(),
            "discovery_sketch": self.discovery_sketch.snapshot(),
            "exploratory_sketch": self.exploratory_sketch.snapshot(),
            "seg_errors": [m.snapshot() for m in self.seg_errors],
            "seg_times": [m.snapshot() for m in self.seg_times],
            "seg_subs": [m.snapshot() for m in self.seg_subs],
            "seg_errorless": list(self.seg_errorless),
            "seg_time_sketch": [
                s.snapshot() for s in self.seg_time_sketch
            ],
            "cells": {
                cell: {
                    "users": self.cell_users.get(cell),
                    "errors": self.cell_errors[cell].snapshot(),
                    "times": self.cell_times[cell].snapshot(),
                }
                for cell in self.cell_users.keys()
            },
        }


def _classic_result(aggregate: StudyAggregate) -> ExperimentResult:
    """The STUDY1 table and notes from a block-segmented aggregate."""
    result = ExperimentResult(
        experiment_id="STUDY1",
        title="Initial user study: discovery and learning blocks",
        columns=(
            "block",
            "error_rate",
            "errorless_users_frac",
            "mean_trial_s",
            "mean_submovements",
        ),
    )
    n_users = aggregate.n_users
    for index in range(len(aggregate.segments)):
        result.add_row(
            index + 1,
            float(aggregate.seg_errors[index].mean or 0.0),
            aggregate.seg_errorless[index] / n_users if n_users else 0.0,
            float(aggregate.seg_times[index].mean or 0.0),
            float(aggregate.seg_subs[index].mean or 0.0),
        )
    median_t = aggregate.discovery_sketch.median or 0.0
    median_m = aggregate.exploratory_sketch.median or 0.0
    result.note(
        f"discovery without hints: {aggregate.discovered}/{n_users} users, "
        f"median {median_t:.1f} s, median {median_m:.0f} "
        "exploratory movements — 'promptly discovered'"
    )
    late_error = aggregate.late_error_mean()
    if late_error is not None:
        result.note(
            f"mean error rate after block 1: {late_error:.3f} wrong "
            "activations/trial — 'nearly errorless' once the relation is "
            "known"
        )
    return result


def aggregate_user_study(
    outcomes: list[UserOutcome], n_blocks: int
) -> ExperimentResult:
    """Fold per-participant outcomes into the STUDY1 table and notes.

    Streams the outcome list through a :class:`StudyAggregate`; the
    sharded runner calls this on reassembled per-user partials, and
    because the aggregate's arithmetic is exact, the result is
    byte-identical to :func:`run_user_study`'s one-pass fold.
    """
    aggregate = StudyAggregate.for_blocks(n_blocks)
    for outcome in outcomes:
        aggregate.add_outcome(outcome)
    return _classic_result(aggregate)


def run_user_study(
    seed: int = 0,
    n_users: int = 12,
    n_blocks: int = 4,
    trials_per_block: int = 8,
    config: DeviceConfig | None = None,
) -> ExperimentResult:
    """Run the full initial-study protocol over simulated participants.

    Each participant's record is folded into the O(1)-memory
    :class:`StudyAggregate` as it is produced and then discarded.
    """
    aggregate = StudyAggregate.for_blocks(n_blocks)
    for user_seed in user_study_seeds(seed, n_users):
        outcome = run_single_user(
            user_seed, n_blocks, trials_per_block, config
        )
        aggregate.add_outcome(outcome)
    return _classic_result(aggregate)


# ---------------------------------------------------------------------------
# population scale: analytic persona trials
# ---------------------------------------------------------------------------

#: Geometry defaults shared with the full device simulation.
_GEOMETRY = DeviceConfig()
#: Reference select-button area (mm²) the glove presets are calibrated
#: for; matches the default board layout's select button.
_SELECT_AREA_MM2 = 40.0


def _fast_discovery(
    rng: np.random.Generator, persona: Persona
) -> tuple[bool, float, int]:
    """Analytic unguided-discovery phase (cf. ``SimulatedUser.discover``).

    The participant waggles until three highlight changes are causally
    observed; low vision makes each observation less likely.  Jitters
    are ``rng.lognormal(0.0, s)`` as numpy computes it (see
    :func:`simulate_user_fast`).
    """
    gauss = rng.standard_normal
    uniform = rng.random
    exp = math.exp
    observe_p = 0.75 if persona.vision == "normal" else 0.55
    needed = 3
    observed = 0
    movements = 0
    elapsed = 0.0
    while observed < needed and elapsed < 60.0:
        movements += 1
        elapsed += 0.5 * exp(0.2 * gauss()) + 0.15
        elapsed += 0.20 * exp(0.1 * gauss())
        if uniform() < observe_p:
            observed += 1
            elapsed += 0.4 * exp(0.2 * gauss())
    return observed >= needed, elapsed, movements


def simulate_user_fast(
    rng: np.random.Generator,
    persona: Persona,
    scenarios: tuple[Scenario, ...],
) -> UserOutcome:
    """One participant through the battery, sampled analytically.

    Mirrors the structure of ``SimulatedUser.select_entry`` — Fitts
    reaches with noisy endpoints, corrective submovements, impulsive
    commits, verification dwells, glove button fumbles, chunk paging on
    long menus — but draws trial outcomes directly from the motor model
    instead of driving the event-kernel device.  ~10⁴× faster per
    participant, which is what makes million-user studies CPU-bound.

    Every value is the one the distribution methods would draw, without
    their per-call dispatch: numpy computes ``rng.lognormal(0.0, s)`` as
    ``exp(0.0 + s * z)`` and ``rng.normal(0.0, s)`` as ``0.0 + s * z``
    from one ``z = rng.standard_normal()``, and this does the same
    (dropping the ``0.0 +``, which changes at most the sign of a zero
    that ``exp`` and ``abs`` then erase).

    Batch rule: a run of standard normals whose count is known before
    the first of them is drawn comes from one ``standard_normal(n)``
    call, which yields the ``n`` values, and leaves the generator state,
    that ``n`` scalar calls would.  A trial's reaction, page-switch and
    error-recovery jitters plus its first attempt's movement,
    perception and endpoint noise are one call of ``1 + 2·page_steps +
    2·error_recovery + 3``; each retry attempt is one call of 3.  The
    endpoint spread ``sigma`` is a product of positive factors, so every
    attempt draws its endpoint.  Every draw whose count depends on a
    drawn value (commits, dwells, slips, presses, discovery) stays
    scalar.
    Movement times are :func:`~repro.interaction.fitts.movement_time`
    inlined with the same operation order.
    """
    gauss = rng.standard_normal
    uniform = rng.random
    exp = math.exp
    log2 = math.log2

    profile = persona.motor_profile(rng)
    glove = persona.glove_model()
    miss_p = glove.effective_miss_probability(_SELECT_AREA_MM2)
    press_time = profile.button_press_s * glove.dexterity_time_factor
    # The default board layout is right-handed (§5.1): operating it with
    # the left hand slows and destabilizes presses.
    if persona.handedness != "right":
        press_time *= 1.6
        miss_p = min(miss_p + 0.12, 0.9)
    slip_p = min(
        0.02 * persona.tremor_scale * glove.tremor_factor, 0.5
    )

    discovered, discovery_time, movements = _fast_discovery(rng, persona)

    reaction = profile.reaction_time_s
    fitts_a = profile.fitts_a
    fitts_b = profile.fitts_b
    perception = profile.perception_latency_s
    verify_dwell = profile.verify_dwell_s
    impulsivity = profile.impulsivity
    learning_exponent = -profile.learning_rate * 3.0
    movement_factor = glove.movement_time_factor

    span = _GEOMETRY.span_cm
    chunk = _GEOMETRY.chunk_size or 10
    practice = 0
    seg_errors: list[float] = []
    seg_times: list[float] = []
    seg_subs: list[float] = []
    for scenario in scenarios:
        n_slots = min(scenario.menu_entries, chunk)
        spacing = span / n_slots
        width = max(_GEOMETRY.island_fill * spacing, 0.2)
        half_width = width / 2.0
        aim_sigma = profile.endpoint_sigma_frac * half_width
        slip_distance = max(half_width, 0.05)
        n_chunks = max(
            1, math.ceil(scenario.menu_entries / chunk)
        )
        error_recovery = scenario.error_recovery
        errors = 0
        total_time = 0.0
        total_subs = 0
        for index_distance in scenario_distances(scenario, rng):
            uncertainty = 1.0 + 1.2 * (1.0 + practice) ** learning_exponent
            sigma = aim_sigma * uncertainty
            # Page switches toward the target's chunk (long menus).
            page_steps = min(index_distance // chunk, n_chunks - 1)
            # Reaction, paging and recovery jitters, then the first
            # attempt's movement, perception and endpoint noise.
            noise = iter(
                gauss(1 + 2 * page_steps + 2 * error_recovery + 3).tolist()
            ).__next__
            trial_time = reaction * exp(0.15 * noise())
            subs = 0
            for _ in range(page_steps):
                trial_time += reaction * exp(0.15 * noise())
                trial_time += press_time * exp(0.12 * noise())
            if error_recovery:
                # A deliberate wrong activation the participant must
                # back out of: recovery cost lands in the times, not in
                # the error rate (those count *unintended* activations).
                trial_time += reaction * exp(0.15 * noise())
                trial_time += press_time * exp(0.12 * noise())
                subs += 1
            distance = max(
                (index_distance % chunk) * spacing, 0.05
            )
            success = False
            for attempt in range(12):
                if attempt:
                    noise = iter(gauss(3).tolist()).__next__
                subs += 1
                mt = fitts_a + fitts_b * log2(distance / width + 1.0)
                mt *= movement_factor
                mt = max(mt * exp(0.08 * noise()), 0.12)
                trial_time += mt + 0.06
                trial_time += perception * exp(0.1 * noise())
                endpoint = sigma * noise()
                if abs(endpoint) > half_width:
                    # Wrong island: an impulsive user may still commit.
                    if uniform() < impulsivity:
                        errors += 1
                        trial_time += reaction * exp(0.15 * gauss())
                        trial_time += press_time * exp(0.12 * gauss())
                    distance = max(abs(endpoint), 0.05)
                    continue
                if uniform() >= impulsivity:
                    trial_time += verify_dwell * exp(0.2 * gauss())
                    if uniform() < slip_p:
                        distance = slip_distance
                        continue  # tremor pushed it off during the dwell
                for _press in range(4):
                    trial_time += press_time * exp(0.12 * gauss())
                    if uniform() >= miss_p:
                        break
                success = True
                break
            if not success:
                errors += 1
            total_time += trial_time
            total_subs += subs
            practice += 1
        seg_errors.append(errors / scenario.n_trials)
        seg_times.append(total_time / scenario.n_trials)
        seg_subs.append(total_subs / scenario.n_trials)
    return UserOutcome(
        discovered=discovered,
        time_to_discovery_s=discovery_time,
        exploratory_movements=movements,
        block_errors=seg_errors,
        block_times=seg_times,
        block_subs=seg_subs,
    )


def run_user_block(
    seed: int,
    start: int,
    count: int,
    personas: str = "full",
    battery: str = "scrolltest",
) -> StudyAggregate:
    """Run participants ``[start, start+count)`` into one aggregate.

    The population shard unit: every participant's persona and trial
    stream derive from ``(seed, user_index)`` alone, so any block
    partition of the same population merges to identical bytes.
    """
    spec = parse_spec(personas)
    scenarios = resolve_battery(battery)
    aggregate = StudyAggregate(tuple(s.name for s in scenarios))
    for user_index in range(start, start + count):
        persona = persona_for_user(seed, user_index, spec)
        rng = user_rng(seed, user_index)
        outcome = simulate_user_fast(rng, persona, scenarios)
        aggregate.add_outcome(outcome, cell=persona.cell())
    return aggregate


def finalize_scaled_study(
    aggregates: list[StudyAggregate],
    n_users: int,
    personas: str = "full",
    battery: str = "scrolltest",
) -> ExperimentResult:
    """Merge block aggregates into the population-study table.

    One row per battery scenario (speed *and* accuracy measures, per
    ScrollTest), plus notes carrying the discovery arc, the worst
    persona cells and the per-glove marginals — the scenario × persona
    report format of the tinytroupe exemplar, bounded in size no matter
    the population.
    """
    merged = reduce(lambda a, b: a.merge(b), aggregates)
    if merged.n_users != n_users:
        raise ValueError(
            f"aggregates cover {merged.n_users} users, expected {n_users}"
        )
    result = ExperimentResult(
        experiment_id="STUDY1",
        title=(
            f"Population user study: {n_users} personas "
            f"({personas}), battery {battery}"
        ),
        columns=(
            "scenario",
            "users",
            "error_rate",
            "errorless_frac",
            "mean_trial_s",
            "p50_trial_s",
            "p90_trial_s",
            "mean_submovements",
        ),
    )
    for index, name in enumerate(merged.segments):
        result.add_row(
            name,
            merged.n_users,
            float(merged.seg_errors[index].mean or 0.0),
            merged.seg_errorless[index] / merged.n_users,
            float(merged.seg_times[index].mean or 0.0),
            float(merged.seg_time_sketch[index].quantile(0.5) or 0.0),
            float(merged.seg_time_sketch[index].quantile(0.9) or 0.0),
            float(merged.seg_subs[index].mean or 0.0),
        )
    median_t = merged.discovery_sketch.median or 0.0
    result.note(
        f"discovery without hints: {merged.discovered}/{merged.n_users} "
        f"users, median {median_t:.1f} s — 'promptly discovered' holds at "
        "population scale"
    )
    cells = merged.cell_users.keys()
    worst = sorted(
        (
            (-(merged.cell_errors[cell].mean or 0.0), cell)
            for cell in cells
            if merged.cell_users.get(cell) >= max(3, n_users // 1000)
        ),
    )[:5]
    if worst:
        rendered = "; ".join(
            f"{cell} n={merged.cell_users.get(cell)} "
            f"err={-negative_error:.3f}"
            for negative_error, cell in worst
        )
        result.note(f"worst persona cells by error rate: {rendered}")
    by_glove: dict[str, tuple[int, StreamingMoments]] = {}
    for cell in cells:
        glove = cell.split("/")[4]
        users, moments = by_glove.get(glove, (0, StreamingMoments()))
        by_glove[glove] = (
            users + merged.cell_users.get(cell),
            moments.merge(merged.cell_errors[cell]),
        )
    rendered = "; ".join(
        f"{glove} n={users} err={moments.mean or 0.0:.3f}"
        for glove, (users, moments) in sorted(by_glove.items())
    )
    result.note(f"per-glove error rates: {rendered}")
    result.note(
        f"streaming aggregation over {len(cells)} persona cells; "
        "aggregator state is O(1) in the user count"
    )
    return result


def run_scaled_user_study(
    seed: int = 0,
    n_users: int = 10_000,
    personas: str = "full",
    battery: str = "scrolltest",
    users_per_shard: int = 4096,
) -> ExperimentResult:
    """Serial driver of the population study (the ``--jobs 1`` path).

    Walks the identical block decomposition the sharded runner uses and
    folds block aggregates in order, so serial and parallel runs are
    byte-identical by construction.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    aggregates = [
        run_user_block(
            seed,
            start,
            min(users_per_shard, n_users - start),
            personas=personas,
            battery=battery,
        )
        for start in range(0, n_users, users_per_shard)
    ]
    return finalize_scaled_study(
        aggregates, n_users, personas=personas, battery=battery
    )
