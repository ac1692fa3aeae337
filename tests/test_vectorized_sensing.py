"""Scalar/vectorized equivalence of the GP2D120 transfer function.

``ideal_voltage_array`` is only allowed to exist because it is
*bit-equal* to the scalar ``ideal_voltage`` — the island maps and the
SENS-FOLD table depend on it.  These properties pin that equivalence
across all three regimes of the transfer function (fold-back, monotone
range, out of range).  The noisy read itself is pinned against its numpy
formulation in ``tests/test_sensor_read.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.gp2d120 import GP2D120, GP2D120Params

# Spans every regime: contact/floor, fold-back, the monotone branch,
# and beyond max range.
_distances = st.floats(
    min_value=-1.0, max_value=40.0, allow_nan=False, allow_infinity=False
)


class TestIdealVoltageArray:
    @given(st.lists(_distances, min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_scalar(self, distances):
        sensor = GP2D120(rng=None)
        batched = sensor.ideal_voltage_array(np.array(distances))
        scalar = [sensor.ideal_voltage(d) for d in distances]
        assert batched.tolist() == scalar  # exact, not approx

    @given(
        st.lists(_distances, min_size=1, max_size=32),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_on_perturbed_specimens(self, distances, seed):
        sensor = GP2D120.specimen(np.random.default_rng(seed))
        sensor.rng = None
        batched = sensor.ideal_voltage_array(np.array(distances))
        scalar = [sensor.ideal_voltage(d) for d in distances]
        assert batched.tolist() == scalar

    def test_regime_boundaries_exactly(self):
        """The masks must split regimes exactly where the scalar ifs do."""
        sensor = GP2D120(rng=None)
        peak = sensor.params.peak_distance_cm
        edges = np.array([0.0, np.nextafter(0.0, 1.0), peak,
                          np.nextafter(peak, 0.0), 30.0,
                          np.nextafter(30.0, 31.0)])
        batched = sensor.ideal_voltage_array(edges)
        scalar = [sensor.ideal_voltage(d) for d in edges]
        assert batched.tolist() == scalar


class TestBatchedNormalDrawsMatchScalarStream:
    """The kernel's jitter batching relies on numpy's guarantee that
    ``rng.normal(size=n)`` consumes the stream exactly like n scalar
    draws.  Pin it, so a numpy behaviour change fails loudly here rather
    than silently changing the goldens."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=257),
    )
    @settings(max_examples=40, deadline=None)
    def test_normal_size_n_equals_n_scalar_draws(self, seed, n):
        batched = np.random.default_rng(seed).normal(0.0, 1.5, size=n)
        scalar_rng = np.random.default_rng(seed)
        scalar = [scalar_rng.normal(0.0, 1.5) for _ in range(n)]
        assert batched.tolist() == scalar


class TestCycleTimeGuard:
    def test_non_positive_cycle_time_rejected(self):
        with pytest.raises(ValueError, match="cycle_time_s must be positive"):
            GP2D120Params(cycle_time_s=0.0)
        with pytest.raises(ValueError, match="zero-order hold"):
            GP2D120Params(cycle_time_s=-0.01)

    def test_default_params_still_valid(self):
        assert GP2D120Params().cycle_time_s > 0.0
