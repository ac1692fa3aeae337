"""The population path's scalar draws match numpy's, draw for draw.

``simulate_user_fast``, the persona engine and ``MotorProfile.sample``
compute ``rng.lognormal(0.0, s)`` as ``exp(s * z)`` and
``rng.normal(loc, s)`` as ``loc + s * z`` from one
``z = rng.standard_normal()``, and ``np.clip`` on one float as
:func:`repro.signal.scalar.clamp`.  These tests pin each rewrite
against the numpy call on twin generators, pin the whole population
path against the benchmark's output digests, and guard against a
scalar ``np.clip`` creeping back in.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import QuantileSketch, StreamingMoments
from repro.experiments.user_study import (
    _fast_discovery,
    finalize_scaled_study,
    run_user_block,
)
from repro.interaction.personas import (
    PERSONA_DIMENSIONS,
    Persona,
    parse_spec,
    persona_for_user,
    user_rng,
)
from repro.interaction.user import MotorProfile
from repro.signal.scalar import clamp
from repro.sim.streams import PERSONA_STREAM

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
        numpy_rng, scalar_rng = twins(seed)
        assert MotorProfile.sample(scalar_rng) == _numpy_motor_sample(numpy_rng)
        assert numpy_rng.random() == scalar_rng.random()

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
        stats = cls()
        stats.add(first)
        stats.add(second)
        assert _same_float(stats.min, min(first, second))
        assert _same_float(stats.max, max(first, second))


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
