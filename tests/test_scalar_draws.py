"""The population path's draws match numpy's scalar distribution calls.

``simulate_user_fast``, the persona engine and ``MotorProfile.sample``
compute ``rng.lognormal(0.0, s)`` as ``exp(s * z)`` and
``rng.normal(loc, s)`` as ``loc + s * z`` from one
``z = rng.standard_normal()``, and ``np.clip`` on one float as
:func:`repro.signal.scalar.clamp`.  Batch rule: a run of same-type
draws whose count is fixed before the first is drawn comes from one
``standard_normal(n)``/``random(n)`` call, which must give the values
and the final generator state of the ``n`` scalar calls.  Their streams
come from :func:`repro.sim.streams.stream_rng`, which must build the
generator numpy's keyed ``SeedSequence`` builds.  These tests pin each
rewrite against the numpy calls on twin generators, pin the whole
population path against the benchmark's output digests, and guard
against a scalar ``np.clip`` creeping back in.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import signal
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import QuantileSketch, StreamingMoments
from repro.core.config import DeviceConfig
from repro.experiments.user_study import (
    UserOutcome,
    _fast_discovery,
    finalize_scaled_study,
    run_user_block,
    simulate_user_fast,
)
from repro.interaction import personas
from repro.interaction.fitts import movement_time
from repro.interaction.personas import (
    PERSONA_DIMENSIONS,
    Persona,
    PersonaSpec,
    _weighted_pick,
    parse_spec,
    persona_for_user,
    user_rng,
)
from repro.interaction.tasks import BATTERIES, Scenario, scenario_distances
from repro.interaction.user import MotorProfile
from repro.signal.scalar import clamp
from repro.sim.streams import (
    PERSONA_STREAM,
    STREAM_DOMAINS,
    stream_rng,
    stream_state,
)

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

#: Every lognormal sigma the population path draws with.
SIGMAS = (0.08, 0.1, 0.12, 0.15, 0.2, 0.25)
#: Every ``(loc, scale)`` of a normal draw on the population path.
NORMALS = ((0.03, 0.02), (0.35, 0.08))

seeds = st.integers(0, 2**63 - 1)


def twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestDrawRewrites:
    @given(seed=seeds, sigma=st.sampled_from(SIGMAS))
    @settings(max_examples=60, deadline=None)
    def test_lognormal_is_exp_of_scaled_standard_normal(self, seed, sigma):
        numpy_rng, scalar_rng = twins(seed)
        expected = [float(numpy_rng.lognormal(0.0, sigma)) for _ in range(200)]
        gauss = scalar_rng.standard_normal
        assert [math.exp(sigma * gauss()) for _ in range(200)] == expected
        assert numpy_rng.random() == scalar_rng.random()

    @given(
        seed=seeds,
        loc_scale=st.one_of(
            st.sampled_from(NORMALS),
            st.tuples(
                st.just(0.0),
                st.floats(1e-6, 10.0, allow_nan=False, allow_infinity=False),
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_normal_is_loc_plus_scaled_standard_normal(self, seed, loc_scale):
        loc, scale = loc_scale
        numpy_rng, scalar_rng = twins(seed)
        expected = [float(numpy_rng.normal(loc, scale)) for _ in range(200)]
        gauss = scalar_rng.standard_normal
        assert [loc + scale * gauss() for _ in range(200)] == expected
        assert numpy_rng.random() == scalar_rng.random()


def _same_float(a: float, b: float) -> bool:
    """Equal including the sign of zero; NaN equals NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
values = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
bounds = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.15, 0.6, 0.7, 1.6]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestClamp:
    @given(x=values, lo=bounds, hi=bounds)
    @settings(max_examples=400, deadline=None)
    def test_equals_numpy_clip(self, x, lo, hi):
        assert _same_float(clamp(x, lo, hi), float(np.clip(x, lo, hi)))

    @pytest.mark.parametrize("x", [0.0, -0.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("lo, hi", [(0.0, 0.15), (-0.0, 0.0), (0.6, 1.6)])
    def test_special_values(self, x, lo, hi):
        assert _same_float(clamp(x, lo, hi), float(np.clip(x, lo, hi)))


# ---------------------------------------------------------------------------
# the rewritten call sites against their numpy originals
# ---------------------------------------------------------------------------
def _numpy_motor_sample(rng: np.random.Generator) -> MotorProfile:
    jitter = lambda mean, rel: float(mean * rng.lognormal(0.0, rel))  # noqa: E731
    return MotorProfile(
        reaction_time_s=jitter(0.26, 0.15),
        fitts_a=jitter(0.10, 0.2),
        fitts_b=jitter(0.145, 0.15),
        perception_latency_s=jitter(0.20, 0.1),
        verify_dwell_s=jitter(0.22, 0.2),
        button_press_s=jitter(0.16, 0.15),
        endpoint_sigma_frac=jitter(0.27, 0.15),
        impulsivity=float(np.clip(rng.normal(0.03, 0.02), 0.0, 0.15)),
        learning_rate=float(np.clip(rng.normal(0.35, 0.08), 0.15, 0.6)),
    )


def _numpy_motor_profile(
    persona: Persona, rng: np.random.Generator
) -> MotorProfile:
    base = _numpy_motor_sample(rng)
    factors: dict[str, float] = {}
    for dimension in ("age_band", "motor", "handedness", "vision"):
        _weight, modifiers = PERSONA_DIMENSIONS[dimension][
            getattr(persona, dimension)
        ]
        for name, factor in modifiers.items():
            factors[name] = factors.get(name, 1.0) * factor
    factors["learning_rate"] = (
        factors.get("learning_rate", 1.0) * persona.learning_scale
    )
    updates = {
        name: getattr(base, name) * factor for name, factor in factors.items()
    }
    updates["learning_rate"] = float(
        np.clip(updates["learning_rate"], 0.10, 0.70)
    )
    if "impulsivity" in updates:
        updates["impulsivity"] = float(
            np.clip(updates["impulsivity"], 0.0, 0.15)
        )
    return replace(base, **updates)


def _numpy_discovery(
    rng: np.random.Generator, persona: Persona
) -> tuple[bool, float, int]:
    observe_p = 0.75 if persona.vision == "normal" else 0.55
    observed = movements = 0
    elapsed = 0.0
    while observed < 3 and elapsed < 60.0:
        movements += 1
        elapsed += 0.5 * float(rng.lognormal(0.0, 0.2)) + 0.15
        elapsed += 0.20 * float(rng.lognormal(0.0, 0.1))
        if rng.random() < observe_p:
            observed += 1
            elapsed += 0.4 * float(rng.lognormal(0.0, 0.2))
    return observed >= 3, elapsed, movements


population = st.integers(0, 2**31 - 1)
users = st.integers(0, 10**6)


class TestCallSites:
    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_motor_profile_sample(self, seed):
        numpy_rng, batch_rng = twins(seed)
        assert MotorProfile.sample(batch_rng) == _numpy_motor_sample(numpy_rng)
        assert batch_rng.bit_generator.state == numpy_rng.bit_generator.state

    @given(population_seed=population, user=users)
    @settings(max_examples=100, deadline=None)
    def test_persona_motor_profile(self, population_seed, user):
        persona = persona_for_user(population_seed, user, parse_spec("full"))
        numpy_rng = user_rng(population_seed, user)
        scalar_rng = user_rng(population_seed, user)
        expected = _numpy_motor_profile(persona, numpy_rng)
        assert persona.motor_profile(scalar_rng) == expected
        assert numpy_rng.random() == scalar_rng.random()

    def test_every_cell_motor_profile(self):
        """Each age/motor/handedness/vision cell, not just the common ones."""
        for age in PERSONA_DIMENSIONS["age_band"]:
            for motor in PERSONA_DIMENSIONS["motor"]:
                for hand in PERSONA_DIMENSIONS["handedness"]:
                    for vision in PERSONA_DIMENSIONS["vision"]:
                        persona = Persona(age, motor, hand, vision, "none", 1.3)
                        numpy_rng, scalar_rng = twins(17)
                        assert persona.motor_profile(
                            scalar_rng
                        ) == _numpy_motor_profile(persona, numpy_rng)

    @given(population_seed=population, user=users)
    @settings(max_examples=100, deadline=None)
    def test_persona_learning_scale(self, population_seed, user):
        persona = persona_for_user(population_seed, user, parse_spec("full"))
        rng = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(
                    entropy=population_seed, spawn_key=(PERSONA_STREAM, user)
                )
            )
        )
        for _dimension in range(5):
            rng.random()
        expected = float(np.clip(rng.lognormal(0.0, 0.25), 0.6, 1.6))
        assert persona.learning_scale == expected

    @given(population_seed=population, user=users)
    @settings(max_examples=100, deadline=None)
    def test_fast_discovery(self, population_seed, user):
        persona = persona_for_user(population_seed, user, parse_spec("full"))
        numpy_rng = user_rng(population_seed, user)
        scalar_rng = user_rng(population_seed, user)
        expected = _numpy_discovery(numpy_rng, persona)
        assert _fast_discovery(scalar_rng, persona) == expected
        assert numpy_rng.random() == scalar_rng.random()


def _numpy_stream(seed: int, domain: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key))
        )
    )


def _numpy_persona(
    population_seed: int, user: int, spec: PersonaSpec
) -> tuple[Persona, np.random.Generator]:
    """Five scalar ``random()`` picks, then ``np.clip(lognormal)``."""
    rng = _numpy_stream(population_seed, PERSONA_STREAM, user)
    picks = [
        _weighted_pick(float(rng.random()), getattr(spec, dimension))
        for dimension in ("age_band", "motor", "handedness", "vision", "gloves")
    ]
    learning_scale = float(np.clip(rng.lognormal(0.0, 0.25), 0.6, 1.6))
    return Persona(*picks, learning_scale), rng


def _persona_with_stream(
    population_seed: int, user: int, spec: PersonaSpec
) -> tuple[Persona, np.random.Generator]:
    """``persona_for_user`` and the generator it drew from."""
    streams: list[np.random.Generator] = []
    real = personas.stream_rng

    def recording(*args: int) -> np.random.Generator:
        streams.append(real(*args))
        return streams[-1]

    with mock.patch.object(personas, "stream_rng", recording):
        persona = persona_for_user(population_seed, user, spec)
    (rng,) = streams
    return persona, rng


def _numpy_user(
    rng: np.random.Generator,
    persona: Persona,
    scenarios: tuple[Scenario, ...],
) -> UserOutcome:
    """``simulate_user_fast`` with one scalar numpy call per draw."""
    jitter = lambda s: float(rng.lognormal(0.0, s))  # noqa: E731
    profile = _numpy_motor_profile(persona, rng)
    glove = persona.glove_model()
    miss_p = glove.effective_miss_probability(40.0)
    press_time = profile.button_press_s * glove.dexterity_time_factor
    if persona.handedness != "right":
        press_time *= 1.6
        miss_p = min(miss_p + 0.12, 0.9)
    slip_p = min(0.02 * persona.tremor_scale * glove.tremor_factor, 0.5)
    discovered, discovery_time, movements = _numpy_discovery(rng, persona)
    reaction = profile.reaction_time_s
    press = lambda: press_time * jitter(0.12)  # noqa: E731
    geometry = DeviceConfig()
    chunk = geometry.chunk_size or 10
    practice = 0
    seg_errors, seg_times, seg_subs = [], [], []
    for scenario in scenarios:
        spacing = geometry.span_cm / min(scenario.menu_entries, chunk)
        width = max(geometry.island_fill * spacing, 0.2)
        half_width = width / 2.0
        n_chunks = max(1, math.ceil(scenario.menu_entries / chunk))
        errors = 0
        total_time = 0.0
        total_subs = 0
        for index_distance in scenario_distances(scenario, rng):
            sigma = (profile.endpoint_sigma_frac * half_width) * (
                1.0 + 1.2 * (1.0 + practice) ** (-profile.learning_rate * 3.0)
            )
            trial_time = reaction * jitter(0.15)
            subs = 0
            for _ in range(min(index_distance // chunk, n_chunks - 1)):
                trial_time += reaction * jitter(0.15)
                trial_time += press()
            if scenario.error_recovery:
                trial_time += reaction * jitter(0.15)
                trial_time += press()
                subs += 1
            distance = max((index_distance % chunk) * spacing, 0.05)
            success = False
            for _attempt in range(12):
                subs += 1
                mt = movement_time(
                    profile.fitts_a, profile.fitts_b, distance, width
                )
                mt *= glove.movement_time_factor
                mt = max(mt * jitter(0.08), 0.12)
                trial_time += mt + 0.06
                trial_time += profile.perception_latency_s * jitter(0.1)
                endpoint = float(rng.normal(0.0, sigma))
                if abs(endpoint) > half_width:
                    if rng.random() < profile.impulsivity:
                        errors += 1
                        trial_time += reaction * jitter(0.15)
                        trial_time += press()
                    distance = max(abs(endpoint), 0.05)
                    continue
                if rng.random() >= profile.impulsivity:
                    trial_time += profile.verify_dwell_s * jitter(0.2)
                    if rng.random() < slip_p:
                        distance = max(half_width, 0.05)
                        continue
                for _press in range(4):
                    trial_time += press()
                    if rng.random() >= miss_p:
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
        discovered, discovery_time, movements, seg_errors, seg_times, seg_subs
    )


# ---------------------------------------------------------------------------
# one stream-derivation primitive, exact against numpy's SeedSequence
# ---------------------------------------------------------------------------
big_seeds = st.integers(0, 2**200)
key_elements = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)
)
keys = st.lists(key_elements, min_size=1, max_size=3)
#: Word-count edges of the seed: one word, the padded pool, past it.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**96, 2**128 - 1, 2**128, 2**200)


class TestStreamDerivation:
    @given(
        seed=big_seeds,
        domain=st.sampled_from(sorted(STREAM_DOMAINS)),
        key=keys,
    )
    @settings(max_examples=300, deadline=None)
    def test_generator_state_equals_numpy(self, seed, domain, key):
        expected = _numpy_stream(seed, domain, *key).bit_generator.state
        assert stream_rng(seed, domain, *key).bit_generator.state == expected

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("key", [(0,), (2**32,), (1, 2**64), (7, 0, 3)])
    def test_word_count_edges(self, seed, key):
        sequence = np.random.SeedSequence(
            entropy=seed, spawn_key=(PERSONA_STREAM, *key)
        )
        state = sequence.generate_state(4, np.uint64)
        assert stream_state(seed, PERSONA_STREAM, *key) == tuple(map(int, state))

    @pytest.mark.parametrize(
        "seed, key",
        [
            (-1, (0,)),
            (-(2**40), (0,)),
            (0, (-1,)),
            (5, (3, -(2**33))),
            (1.5, (0,)),
            (0, (2.0,)),
            (0, (1, 0.5)),
        ],
    )
    def test_bad_seed_or_key_raises_numpy_error(self, seed, key):
        """Negative ints go to numpy before any word split (a ``while v:
        v >>= 32`` split never ends on one, so a 5 s alarm turns that hang
        into a failure); floats raise numpy's TypeError."""
        with pytest.raises((ValueError, TypeError)) as numpy_error:
            np.random.SeedSequence(
                entropy=seed, spawn_key=(PERSONA_STREAM, *key)
            )
        message = re.escape(str(numpy_error.value))

        def hung(*_args):
            raise TimeoutError("stream derivation did not return")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            for derive in (stream_rng, stream_state):
                with pytest.raises(numpy_error.type, match=message):
                    derive(seed, PERSONA_STREAM, *key)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize(
        "seed, key",
        [(np.int64(9), (1,)), (9, (np.uint32(1),)), (True, (False, 2))],
    )
    def test_integer_likes_take_numpy_path(self, seed, key):
        expected = _numpy_stream(seed, PERSONA_STREAM, *key).bit_generator.state
        assert stream_rng(seed, PERSONA_STREAM, *key).bit_generator.state == expected


# ---------------------------------------------------------------------------
# batched draws against their scalar twins: values and final state
# ---------------------------------------------------------------------------
class TestBatchedDraws:
    @given(
        population_seed=population,
        user=users,
        spec=st.sampled_from(["full", "bare", "gloves=winter,arctic"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_persona_for_user(self, population_seed, user, spec):
        parsed = parse_spec(spec)
        expected, numpy_rng = _numpy_persona(population_seed, user, parsed)
        persona, batch_rng = _persona_with_stream(population_seed, user, parsed)
        assert persona == expected
        assert batch_rng.bit_generator.state == numpy_rng.bit_generator.state

    @given(
        population_seed=population,
        user=users,
        battery=st.sampled_from(sorted(BATTERIES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_simulate_user_fast(self, population_seed, user, battery):
        persona = persona_for_user(population_seed, user, parse_spec("full"))
        numpy_rng = user_rng(population_seed, user)
        batch_rng = user_rng(population_seed, user)
        expected = _numpy_user(numpy_rng, persona, BATTERIES[battery])
        assert simulate_user_fast(batch_rng, persona, BATTERIES[battery]) == expected
        assert batch_rng.bit_generator.state == numpy_rng.bit_generator.state


class TestStatsAdds:
    @pytest.mark.parametrize("cls", [StreamingMoments, QuantileSketch])
    def test_nan_rejected(self, cls):
        stats = cls()
        with pytest.raises(ValueError, match="NaN observation"):
            stats.add(math.nan)
        assert stats.count == 0

    @pytest.mark.parametrize("cls", [StreamingMoments, QuantileSketch])
    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_min_max_keep_the_incumbent_on_ties(self, cls, first, second):
        """A zero extreme is stored as 0.0, whichever zero came first, so
        merges of signed zeros commute."""
        stats = cls()
        stats.add(first)
        stats.add(second)
        assert _same_float(stats.min, 0.0)
        assert _same_float(stats.max, 0.0)


# ---------------------------------------------------------------------------
# the whole population path
# ---------------------------------------------------------------------------
def _study_digest(seed: int, n_users: int) -> str:
    """The benchmark's ``study`` output digest for one 4096-user block."""
    aggregate = run_user_block(seed, 0, n_users)
    result = finalize_scaled_study([aggregate], n_users)
    snapshot = json.dumps(aggregate.snapshot(), sort_keys=True).encode()
    return hashlib.sha256(snapshot + result.csv_bytes()).hexdigest()


class TestPopulationPins:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_4096_user_block_matches_benchmark_pin(self, seed):
        pins = json.loads(DIGESTS.read_text())["study"]
        assert _study_digest(seed, 4096) == pins[str(seed)]["STUDY1"]

    def test_population_path_calls_no_scalar_clip(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("np.clip called on the population path")

        monkeypatch.setattr(np, "clip", refuse)
        aggregate = run_user_block(0, 0, 256)
        assert aggregate.n_users == 256
