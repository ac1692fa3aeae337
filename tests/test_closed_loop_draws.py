"""The closed loop's scalar ADC and tremor paths match numpy, draw for draw.

``ADC._quantize`` computes ``np.sin(np.pi * np.clip(f, 0, 1))`` as
``math.sin(math.pi * clamp(f, 0, 1))``, its noise ``rng.normal(0.0, s)``
as ``0.0 + s * rng.standard_normal()`` and its code clip with
:func:`repro.signal.scalar.clamp`; ``Hand._advance_tremor`` rewrites
its two normal draws the same way.  These tests pin each rewrite
against the numpy original on twin generators, pin the whole ARENA
closed loop against the benchmark's output digests, and guard against
a scalar ``np.clip`` or ``np.sin`` creeping back into a conversion.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.arena import finalize_arena, run_arena_block
from repro.hardware.adc import ADC, ADCParams
from repro.interaction.hand import Hand
from repro.signal.scalar import clamp
from repro.sim.kernel import Simulator

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

#: The ADC's input-referred noise sigma (every board uses the default).
ADC_SIGMA = ADCParams().noise_lsb_rms
#: The tremor oscillator's frequency-jitter and broadband sigmas.
TREMOR_SIGMAS = (0.1, 0.6)

seeds = st.integers(0, 2**63 - 1)


def twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestDrawRewrites:
    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_adc_noise_draw(self, seed):
        numpy_rng, scalar_rng = twins(seed)
        expected = [numpy_rng.normal(0.0, ADC_SIGMA) for _ in range(200)]
        gauss = scalar_rng.standard_normal
        assert [0.0 + ADC_SIGMA * gauss() for _ in range(200)] == expected
        assert numpy_rng.random() == scalar_rng.random()

    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_tremor_draws_interleaved(self, seed):
        jitter, broadband = TREMOR_SIGMAS
        numpy_rng, scalar_rng = twins(seed)
        expected = []
        for _ in range(100):
            expected.append(numpy_rng.normal(0.0, jitter))
            expected.append(numpy_rng.normal(0.0, broadband))
        gauss = scalar_rng.standard_normal
        drawn = []
        for _ in range(100):
            drawn.append(0.0 + jitter * gauss())
            drawn.append(0.0 + broadband * gauss())
        assert drawn == expected
        assert numpy_rng.random() == scalar_rng.random()

    @given(f=st.floats(0.0, 1.0))
    @settings(max_examples=2000, deadline=None)
    def test_math_sin_equals_numpy_sin_on_unit_interval(self, f):
        # numpy dispatches its float64 sin to SIMD loops chosen at run
        # time (AVX-512 on the x86-64 host this was measured on), which
        # may differ from libm; on the INL bow's domain they agree.
        assert math.sin(math.pi * f) == float(np.sin(np.pi * f))

    @given(c=st.floats(-1e6, 1e6))
    @settings(max_examples=400, deadline=None)
    def test_clamp_of_rounded_code_equals_numpy_clip(self, c):
        assert int(clamp(round(c), 0, 1023)) == int(np.clip(round(c), 0, 1023))

    @given(code=st.integers(-(2**40), 2**40))
    @settings(max_examples=200, deadline=None)
    def test_clamp_on_ints_equals_numpy_clip(self, code):
        assert int(clamp(code, 0, 1023)) == int(np.clip(code, 0, 1023))


# ---------------------------------------------------------------------------
# the rewritten call sites against their numpy originals
# ---------------------------------------------------------------------------
def _numpy_quantize(
    params: ADCParams, rng: np.random.Generator, voltage: float
) -> int:
    fraction = voltage / params.v_ref
    code = fraction * (params.max_code + 1)
    code += params.inl_lsb * np.sin(np.pi * np.clip(fraction, 0.0, 1.0))
    code += rng.normal(0.0, params.noise_lsb_rms)
    return int(np.clip(round(code), 0, params.max_code))


def _numpy_tremor(
    rng: np.random.Generator, hand: Hand, updates: int
) -> list[float]:
    """The tremor offsets the ``rng.normal`` oscillator produced."""
    phase = 0.0
    offsets = []
    for _ in range(updates):
        phase += (
            2.0 * math.pi * hand.tremor_hz * (1.0 / 120.0)
            * (1.0 + rng.normal(0.0, 0.1))
        )
        broadband = rng.normal(0.0, 0.6)
        offsets.append(
            hand.tremor_rms_cm * (0.8 * math.sin(phase) + 0.45 * broadband)
        )
    return offsets


voltages = st.lists(
    st.floats(-1.0, 6.0, allow_nan=False), min_size=1, max_size=50
)


class TestCallSites:
    @given(seed=seeds, volts=voltages)
    @settings(max_examples=100, deadline=None)
    def test_adc_sample(self, seed, volts):
        numpy_rng, scalar_rng = twins(seed)
        adc = ADC(rng=scalar_rng)
        level = [0.0]
        adc.attach(0, lambda _t: level[0])
        for voltage in volts:
            level[0] = voltage
            expected = _numpy_quantize(adc.params, numpy_rng, voltage)
            assert adc.sample(0.0, 0) == expected
        assert numpy_rng.random() == scalar_rng.random()

    @given(hooked=st.integers(-5000, 5000), voltage=st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_fault_hook_clip(self, hooked, voltage):
        adc = ADC(rng=None, fault_hook=lambda _t, _c, _code: hooked)
        adc.attach(0, lambda _t: voltage)
        assert adc.sample(0.0, 0) == int(np.clip(hooked, 0, 1023))

    @given(voltage=st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_code_for_voltage(self, voltage):
        adc = ADC(rng=None)
        code = voltage / 5.0 * 1024
        assert adc.code_for_voltage(voltage) == int(
            np.clip(round(code), 0, 1023)
        )

    @given(seed=seeds, rms=st.sampled_from([0.05, 0.08, 0.15]))
    @settings(max_examples=40, deadline=None)
    def test_hand_tremor(self, seed, rms):
        numpy_rng, scalar_rng = twins(seed)
        sim = Simulator(seed=0)
        poses: list[float] = []
        hand = Hand(
            sim, poses.append, start_cm=15.0, tremor_rms_cm=rms,
            rng=scalar_rng,
        )
        sim.run_until(0.5)
        updates = poses[1:]
        expected = [
            max(15.0 + offset, 0.5)
            for offset in _numpy_tremor(numpy_rng, hand, len(updates))
        ]
        assert updates == expected
        assert numpy_rng.random() == scalar_rng.random()


class TestNoNumpyScalarCalls:
    def test_adc_sample_calls_no_numpy_clip_or_sin(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("numpy scalar call on the conversion path")

        monkeypatch.setattr(np, "clip", refuse)
        monkeypatch.setattr(np, "sin", refuse)
        adc = ADC(
            rng=np.random.default_rng(0),
            fault_hook=lambda _t, _c, code: code + 2000,
        )
        adc.attach(0, lambda t: 2.5 + t)
        codes = [adc.sample(t, 0) for t in (0.0, 1.0, 3.0)]
        assert codes == [1023, 1023, 1023]
        assert adc.code_for_voltage(2.5) == 512


# ---------------------------------------------------------------------------
# the whole closed loop
# ---------------------------------------------------------------------------
def _arena_digest(seed: int, n_users: int) -> str:
    """The benchmark's ``arena`` output digest for one 4-user block."""
    aggregates = [run_arena_block(seed, 0, n_users)]
    result = finalize_arena(aggregates, n_users)
    merged = reduce(lambda a, b: a.merge(b), aggregates)
    snapshot = json.dumps(merged.snapshot(), sort_keys=True).encode()
    return hashlib.sha256(snapshot + result.csv_bytes()).hexdigest()


class TestArenaPins:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_4_user_block_matches_benchmark_pin(self, seed):
        pins = json.loads(DIGESTS.read_text())["arena"]
        assert _arena_digest(seed, 4) == pins[str(seed)]["ARENA"]
