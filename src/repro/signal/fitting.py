"""Curve fitting for the GP2D120 calibration (Figures 4 and 5).

The paper fits an "idealized curve" through measured (distance, voltage)
samples and reports that in log space the samples "nearly perfectly fit the
curve".  The standard model for Sharp triangulation sensors is the shifted
hyperbola

    V(d) = a / (d + b) + c

which is linear in ``a`` and ``c`` for fixed ``b``; we solve the inner linear
problem exactly and search ``b`` with a bounded Brent minimiser ported from
scipy, so the runtime needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "HyperbolicFit",
    "fit_hyperbola",
    "fit_power_law",
    "r_squared",
    "PowerLawFit",
]


@dataclass(frozen=True)
class HyperbolicFit:
    """Result of fitting ``V(d) = a / (d + b) + c``.

    Attributes
    ----------
    a, b, c:
        Fitted parameters.  ``a`` has units V*cm, ``b`` cm, ``c`` V.
    residual_rms:
        Root-mean-square residual in volts.
    r2:
        Coefficient of determination on the raw (linear-axis) data.
    """

    a: float
    b: float
    c: float
    residual_rms: float
    r2: float

    def voltage(self, distance_cm: np.ndarray | float) -> np.ndarray | float:
        """Predicted voltage at the given distance(s)."""
        return self.a / (np.asarray(distance_cm, dtype=float) + self.b) + self.c

    def distance(self, voltage: np.ndarray | float) -> np.ndarray | float:
        """Invert the fit: distance producing the given voltage(s).

        Only valid for voltages inside the monotone branch (above ``c``).
        """
        v = np.asarray(voltage, dtype=float)
        return self.a / (v - self.c) - self.b


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``V(d) = k * d ** p`` in log-log space (Figure 5)."""

    k: float
    p: float
    r2_log: float

    def voltage(self, distance_cm: np.ndarray | float) -> np.ndarray | float:
        """Predicted voltage at the given distance(s)."""
        # reprolint: allow REP007 (calibration-time curve evaluation with no scalar twin — there is no oracle for SIMD pow to diverge from)
        return self.k * np.asarray(distance_cm, dtype=float) ** self.p


def r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination of ``predicted`` against ``observed``."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    ss_res = float(np.sum((observed - predicted) ** 2))
    ss_tot = float(np.sum((observed - observed.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def _require_finite(distances: np.ndarray, voltages: np.ndarray) -> None:
    """Reject NaN/inf samples, which would otherwise give a silent NaN fit."""
    if not (np.all(np.isfinite(distances)) and np.all(np.isfinite(voltages))):
        raise ValueError("distances and voltages must be finite")


def _solve_linear_part(
    distances: np.ndarray, voltages: np.ndarray, b: float
) -> tuple[float, float, float]:
    """For fixed ``b`` solve least-squares for ``a`` and ``c``; return rss."""
    basis = 1.0 / (distances + b)
    design = np.column_stack([basis, np.ones_like(basis)])
    coeffs, _, _, _ = np.linalg.lstsq(design, voltages, rcond=None)
    residuals = voltages - design @ coeffs
    return float(coeffs[0]), float(coeffs[1]), float(np.sum(residuals**2))


def _unit_sign(x: float) -> float:
    """``np.sign(x) + (x == 0)`` on a Python float: -1 or +1, NaN stays NaN."""
    return -1.0 if x < 0.0 else (1.0 if x >= 0.0 else x)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL = 1e-5  # scipy's default absolute tolerance on the argmin


def _minimize_bounded(
    func: Callable[[float], float],
    lower: float,
    upper: float,
    maxiter: int = 500,
) -> float:
    """Minimise a scalar ``func`` on ``[lower, upper]``; return the argmin.

    Brent's bounded method, ported operation for operation from
    ``scipy.optimize._optimize._minimize_scalar_bounded`` (scipy 1.17.1,
    BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003 SciPy
    Developers).  ``np.abs``/``np.sign``/``np.maximum`` on scalars become
    ``abs``/:func:`_unit_sign`/``max`` with every floating-point operation
    kept in scipy's order, so the result equals
    ``minimize_scalar(func, bounds=(lower, upper), method="bounded").x``
    bit for bit (``tests/test_signal_fitting.py`` checks it against scipy).
    Like scipy, it stops after ``maxiter`` evaluations without raising.
    """
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lower > upper:
        raise ValueError("The lower bound exceeds the upper bound.")

    a, b = lower, upper
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit.
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of the parabola.
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _unit_sign(xm - xf)
            else:
                golden = True

        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + _unit_sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            break

    return xf


def fit_hyperbola(
    distances_cm: np.ndarray,
    voltages: np.ndarray,
    b_bounds: tuple[float, float] = (-2.0, 20.0),
) -> HyperbolicFit:
    """Fit the idealized sensor curve ``V = a/(d+b) + c`` (Figure 4).

    Parameters
    ----------
    distances_cm:
        Distances of the measured samples, in cm.  Must all exceed the lower
        bound of ``b_bounds`` negated (so ``d + b`` stays positive).
    voltages:
        Measured analog voltages at the Smart-Its input port.  Both arrays
        must be finite; NaN or inf raises ``ValueError``.
    b_bounds:
        Search interval for the distance offset ``b``.

    Returns
    -------
    HyperbolicFit
        Fitted parameters with fit-quality statistics.
    """
    distances = np.asarray(distances_cm, dtype=float)
    voltages_arr = np.asarray(voltages, dtype=float)
    if distances.shape != voltages_arr.shape:
        raise ValueError("distances and voltages must have the same shape")
    if distances.size < 3:
        raise ValueError("need at least 3 samples to fit three parameters")
    _require_finite(distances, voltages_arr)

    lo = max(b_bounds[0], -float(distances.min()) + 1e-3)
    hi = b_bounds[1]
    b = _minimize_bounded(
        lambda b: _solve_linear_part(distances, voltages_arr, b)[2], lo, hi
    )
    a, c, rss = _solve_linear_part(distances, voltages_arr, b)
    fit = HyperbolicFit(
        a=a,
        b=b,
        c=c,
        residual_rms=float(np.sqrt(rss / distances.size)),
        r2=r_squared(voltages_arr, a / (distances + b) + c),
    )
    return fit


def fit_power_law(
    distances_cm: np.ndarray, voltages: np.ndarray
) -> PowerLawFit:
    """Fit ``V = k * d**p`` by linear regression in log-log space.

    This is the straight line of Figure 5: on logarithmic axes the measured
    values "nearly perfectly fit the curve".
    """
    distances = np.asarray(distances_cm, dtype=float)
    voltages_arr = np.asarray(voltages, dtype=float)
    _require_finite(distances, voltages_arr)
    if np.any(distances <= 0) or np.any(voltages_arr <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    log_d = np.log(distances)
    log_v = np.log(voltages_arr)
    design = np.column_stack([log_d, np.ones_like(log_d)])
    coeffs, _, _, _ = np.linalg.lstsq(design, log_v, rcond=None)
    p, log_k = float(coeffs[0]), float(coeffs[1])
    predicted = design @ coeffs
    return PowerLawFit(k=float(np.exp(log_k)), p=p, r2_log=r_squared(log_v, predicted))
