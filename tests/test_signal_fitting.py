"""Tests for the curve-fitting routines behind Figures 4 and 5."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signal.fitting import (
    _minimize_bounded,
    _solve_linear_part,
    fit_hyperbola,
    fit_power_law,
    r_squared,
)

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _scipy_argmin(func, lower, upper, **options):
    """scipy's bounded Brent argmin, the oracle ``_minimize_bounded`` ports."""
    optimize = pytest.importorskip("scipy.optimize")
    result = optimize.minimize_scalar(
        func, bounds=(lower, upper), method="bounded", options=options or None
    )
    return float(result.x)


class TestRSquared:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == 1.0

    def test_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, y.mean())
        assert r_squared(y, pred) == pytest.approx(0.0)

    def test_constant_observed(self):
        y = np.full(4, 2.0)
        assert r_squared(y, y) == 1.0
        assert r_squared(y, y + 1.0) == 0.0


class TestHyperbolicFit:
    def test_recovers_exact_parameters(self):
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08
        fit = fit_hyperbola(d, v)
        assert fit.a == pytest.approx(11.8, rel=1e-3)
        assert fit.b == pytest.approx(0.42, abs=1e-2)
        assert fit.c == pytest.approx(0.08, abs=1e-2)
        assert fit.r2 > 0.99999

    def test_robust_to_noise(self):
        rng = np.random.default_rng(5)
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08 + rng.normal(0, 0.01, d.size)
        fit = fit_hyperbola(d, v)
        assert fit.a == pytest.approx(11.8, rel=0.05)
        assert fit.r2 > 0.995

    def test_voltage_distance_roundtrip(self):
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08
        fit = fit_hyperbola(d, v)
        for dist in (5.0, 12.0, 25.0):
            voltage = float(fit.voltage(dist))
            assert float(fit.distance(voltage)) == pytest.approx(dist, rel=1e-3)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_hyperbola(np.array([4.0, 5.0]), np.array([2.0, 1.8]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_hyperbola(np.array([4.0, 5.0, 6.0]), np.array([2.0, 1.8]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", ["distances", "voltages"])
    def test_non_finite_sample_rejected(self, where, bad):
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08
        (d if where == "distances" else v)[5] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_hyperbola(d, v)

    @given(
        a=st.floats(min_value=5.0, max_value=20.0),
        b=st.floats(min_value=-0.5, max_value=3.0),
        c=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_exact_recovery(self, a, b, c):
        d = np.linspace(4, 30, 40)
        v = a / (d + b) + c
        fit = fit_hyperbola(d, v)
        predicted = fit.voltage(d)
        assert float(np.max(np.abs(predicted - v))) < 1e-4


class TestPowerLawFit:
    def test_recovers_exact_power_law(self):
        d = np.linspace(4, 30, 27)
        v = 9.0 * d**-0.85
        fit = fit_power_law(d, v)
        assert fit.k == pytest.approx(9.0, rel=1e-6)
        assert fit.p == pytest.approx(-0.85, abs=1e-9)
        assert fit.r2_log == pytest.approx(1.0)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", ["distances", "voltages"])
    def test_non_finite_sample_rejected(self, where, bad):
        d = np.linspace(4, 30, 27)
        v = 9.0 * d**-0.85
        (d if where == "distances" else v)[5] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(d, v)

    def test_sensor_curve_is_nearly_power_law(self):
        """The GP2D120 hyperbola looks like a straight line in log-log —
        the entire point of Figure 5."""
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08
        fit = fit_power_law(d, v)
        assert fit.r2_log > 0.998


class TestMinimizeBounded:
    """``_minimize_bounded`` is a port of scipy's bounded Brent method and
    must return scipy's ``.x`` bit for bit."""

    @given(
        d_min=st.floats(min_value=0.05, max_value=1.9),
        a=st.floats(min_value=5.0, max_value=20.0),
        b=st.floats(min_value=0.0, max_value=3.0),
        c=st.floats(min_value=0.0, max_value=0.5),
        noise=st.floats(min_value=0.0, max_value=0.2),
        n=st.integers(min_value=3, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_on_hyperbola_objectives(
        self, d_min, a, b, c, noise, n, seed
    ):
        rng = np.random.default_rng(seed)
        d = np.sort(rng.uniform(d_min, 35.0, n))
        d[0] = d_min
        v = a / (d + b) + c + rng.normal(0.0, noise, n)
        # The lower clamp of fit_hyperbola, active because d_min < 2 cm.
        lower = max(-2.0, -float(d.min()) + 1e-3)
        assert lower > -2.0

        def rss(offset):
            return _solve_linear_part(d, v, offset)[2]

        got = _minimize_bounded(rss, lower, 20.0)
        assert got == _scipy_argmin(rss, lower, 20.0)

    def test_matches_scipy_on_calibration_grid(self):
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08 + np.random.default_rng(5).normal(0, 0.01, 27)

        def rss(offset):
            return _solve_linear_part(d, v, offset)[2]

        assert fit_hyperbola(d, v).b == _scipy_argmin(rss, -2.0, 20.0)

    @pytest.mark.parametrize(
        "func, expected",
        [(lambda x: x, -1.0), (lambda x: -x, 4.0)],
        ids=["at-lower", "at-upper"],
    )
    def test_minimum_at_a_bound(self, func, expected):
        got = _minimize_bounded(func, -1.0, 4.0)
        assert got == pytest.approx(expected, abs=1e-4)
        assert got == _scipy_argmin(func, -1.0, 4.0)

    def test_flat_objective(self):
        got = _minimize_bounded(lambda x: 0.0, -1.0, 4.0)
        assert -1.0 <= got <= 4.0
        assert got == _scipy_argmin(lambda x: 0.0, -1.0, 4.0)

    def test_maxiter_exhausted(self):
        calls = []

        def func(x):
            calls.append(x)
            return (x - 1.234567) ** 2

        got = _minimize_bounded(func, -10.0, 10.0, maxiter=3)
        assert len(calls) == 3
        assert got == _scipy_argmin(func, -10.0, 10.0, maxiter=3)

    def test_degenerate_interval(self):
        assert _minimize_bounded(lambda x: x * x, 1.5, 1.5) == 1.5
        assert _scipy_argmin(lambda x: x * x, 1.5, 1.5) == 1.5

    @pytest.mark.parametrize(
        "lower, upper",
        [(2.0, 1.0), (float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 0.0)],
        ids=["inverted", "nan", "inf", "-inf"],
    )
    def test_bad_bounds_rejected_like_scipy(self, lower, upper):
        with pytest.raises(ValueError):
            _minimize_bounded(lambda x: x * x, lower, upper)
        with pytest.raises(ValueError):
            _scipy_argmin(lambda x: x * x, lower, upper)
