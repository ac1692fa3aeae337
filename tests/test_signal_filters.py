"""Tests for the streaming filters used by the firmware."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signal.filters import ExponentialMovingAverage, MedianFilter


class TestExponentialMovingAverage:
    def test_first_sample_passes_through(self):
        ema = ExponentialMovingAverage(alpha=0.3)
        assert ema.update(5.0) == 5.0

    def test_converges_to_constant_input(self):
        ema = ExponentialMovingAverage(alpha=0.5)
        for _ in range(50):
            value = ema.update(3.0)
        assert value == pytest.approx(3.0)

    def test_alpha_one_is_passthrough(self):
        ema = ExponentialMovingAverage(alpha=1.0)
        ema.update(1.0)
        assert ema.update(9.0) == 9.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            ExponentialMovingAverage(alpha=0.0)
        with pytest.raises(ValueError):
            ExponentialMovingAverage(alpha=1.5)

    def test_reset_forgets(self):
        ema = ExponentialMovingAverage(alpha=0.1)
        ema.update(100.0)
        ema.reset()
        assert ema.value is None
        assert ema.update(1.0) == 1.0

    def test_smooths_noise(self):
        rng = np.random.default_rng(0)
        ema = ExponentialMovingAverage(alpha=0.1)
        outputs = [ema.update(1.0 + rng.normal(0, 0.5)) for _ in range(500)]
        assert np.std(outputs[100:]) < 0.25


class TestMedianFilter:
    def test_kills_isolated_spike(self):
        med = MedianFilter(window=3)
        med.update(10.0)
        med.update(10.0)
        assert med.update(500.0) == 10.0  # spike suppressed

    def test_median_of_even_window(self):
        med = MedianFilter(window=4)
        outputs = [med.update(v) for v in (1.0, 2.0, 3.0, 4.0)]
        assert outputs[-1] == 2.5

    def test_window_one_is_passthrough(self):
        med = MedianFilter(window=1)
        assert med.update(7.0) == 7.0

    def test_reset(self):
        med = MedianFilter(window=3)
        med.update(100.0)
        med.reset()
        assert med.update(1.0) == 1.0

    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        window=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_sorted_insert_matches_resort(self, samples, window):
        """The incremental sorted window equals a full re-sort each step."""
        from collections import deque

        med = MedianFilter(window=window)
        reference = deque(maxlen=window)
        for sample in samples:
            got = med.update(sample)
            reference.append(float(sample))
            ordered = sorted(reference)
            n = len(ordered)
            if n % 2 == 1:
                expected = ordered[n // 2]
            else:
                expected = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
            assert got == expected

    def test_reset_clears_sorted_mirror(self):
        med = MedianFilter(window=3)
        for v in (5.0, 6.0, 7.0):
            med.update(v)
        med.reset()
        assert med.update(1.0) == 1.0
        assert med.update(2.0) == 1.5
