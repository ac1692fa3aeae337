"""Calibration sweeps over the simulated GP2D120 — Figures 4 and 5.

The paper's authors swept the sensor over its range, recorded the analog
voltage at the Smart-Its input port, plotted the samples ("asterisks") and
fitted an idealized curve through them (Figure 4; Figure 5 repeats the plot
on logarithmic axes).  They also verified the curve "in different light
conditions and with different clothing as surfaces".

This module is that bench procedure in code: sample a sensor specimen at a
grid of distances, average repeated readings, and fit the hyperbolic and
power-law models from :mod:`repro.signal.fitting`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.recorder import active_recorder
from repro.sensors.gp2d120 import GP2D120, SENSOR_MAX_CM, SENSOR_MIN_CM
from repro.sensors.surfaces import AmbientLight, Surface
from repro.signal.fitting import (
    HyperbolicFit,
    PowerLawFit,
    fit_hyperbola,
    fit_power_law,
)

__all__ = ["CalibrationSample", "CalibrationResult", "calibrate", "sweep_environments"]


@dataclass(frozen=True)
class CalibrationSample:
    """One measured point of the sweep: the asterisks of Figure 4."""

    distance_cm: float
    mean_voltage: float
    std_voltage: float
    n_readings: int


@dataclass(frozen=True)
class CalibrationResult:
    """A full sweep plus the fitted idealized curves.

    Attributes
    ----------
    samples:
        Measured points in increasing distance order.
    hyperbola:
        The Figure 4 idealized curve ``V = a/(d+b)+c``.
    power_law:
        The Figure 5 log-log straight line ``V = k*d**p``.
    surface_name, ambient_name:
        The conditions under which the sweep ran.
    """

    samples: tuple[CalibrationSample, ...]
    hyperbola: HyperbolicFit
    power_law: PowerLawFit
    surface_name: str
    ambient_name: str

    @property
    def distances(self) -> np.ndarray:
        """Sample distances in cm."""
        return np.array([s.distance_cm for s in self.samples])

    @property
    def voltages(self) -> np.ndarray:
        """Mean measured voltages in volts."""
        return np.array([s.mean_voltage for s in self.samples])

    def max_abs_residual(self) -> float:
        """Largest |measured - fitted| over the sweep, in volts."""
        predicted = self.hyperbola.voltage(self.distances)
        return float(np.max(np.abs(self.voltages - predicted)))


def calibrate(
    sensor: GP2D120,
    distances_cm: np.ndarray | None = None,
    readings_per_point: int = 16,
    settle_time_s: float = 0.5,
) -> CalibrationResult:
    """Run the Figure 4/5 sweep on one sensor specimen.

    Parameters
    ----------
    sensor:
        The specimen to characterize; its surface/ambient attributes define
        the measurement conditions.
    distances_cm:
        Grid of true distances.  Defaults to 1 cm steps over the monotone
        4–30 cm range, matching the density of the paper's plot.
    readings_per_point:
        ADC readings averaged per grid point (each lands in a different
        sensor measurement cycle, so each carries independent noise).
        Must be at least 1.
    settle_time_s:
        Simulated dwell before sampling starts at each point.

    Returns
    -------
    CalibrationResult
        Samples plus both fitted curves.
    """
    if readings_per_point < 1:
        raise ValueError(
            f"readings_per_point must be at least 1, got {readings_per_point}"
        )
    if distances_cm is None:
        distances_cm = np.arange(SENSOR_MIN_CM, SENSOR_MAX_CM + 0.5, 1.0)
    distances = np.sort(np.asarray(distances_cm, dtype=float))
    if np.any(distances < SENSOR_MIN_CM - 1e-9):
        raise ValueError("calibration sweep must stay on the monotone branch")

    obs = active_recorder()
    samples = []
    clock = 0.0
    cycle = sensor.params.cycle_time_s
    for distance in distances:
        clock += settle_time_s
        dwell_from = clock
        at = float(distance)
        readings = np.empty(readings_per_point)
        for i in range(readings_per_point):
            clock += cycle * 1.05  # ensure a fresh measurement cycle
            readings[i] = sensor.output_voltage(clock, at)
        samples.append(_summarize(distance, readings, readings_per_point))
        if obs is not None:
            _observe_point(obs, dwell_from, clock, distance,
                           readings_per_point)

    voltages = np.array([s.mean_voltage for s in samples])
    return CalibrationResult(
        samples=tuple(samples),
        hyperbola=fit_hyperbola(distances, voltages),
        power_law=fit_power_law(distances, voltages),
        surface_name=sensor.surface.name,
        ambient_name=sensor.ambient.name,
    )


def _observe_point(
    obs, start, end, distance, readings_per_point
) -> None:
    """Span + histogram bookkeeping for one calibration grid point.

    ``start``/``end`` come from the sweep's manual sim clock, so an
    observed FIG4 run produces identical spans regardless of job count.
    """
    obs.emit_span(
        "calibration.point",
        start,
        end,
        {"distance_cm": float(distance), "readings": readings_per_point},
    )
    obs.counter("calibration.points")
    obs.observe(
        "calibration.point.dwell_s", end - start, low=1e-3, high=1e2
    )


def _summarize(
    distance: float, readings: np.ndarray, readings_per_point: int
) -> CalibrationSample:
    """One grid point's statistics."""
    return CalibrationSample(
        distance_cm=float(distance),
        mean_voltage=float(readings.mean()),
        std_voltage=(
            float(readings.std(ddof=1)) if readings_per_point > 1 else 0.0
        ),
        n_readings=readings_per_point,
    )


def sweep_environments(
    rng: np.random.Generator,
    surfaces: dict[str, Surface],
    ambients: dict[str, AmbientLight],
    readings_per_point: int = 16,
) -> dict[tuple[str, str], CalibrationResult]:
    """Re-run the calibration across surface x light combinations (§4.2).

    Uses a single sensor specimen (drawn from ``rng``) so any curve
    differences come from the environment, exactly as in the paper's
    verification.  Returns a mapping keyed by (surface key, ambient key).
    """
    specimen_params = GP2D120.specimen(rng).params
    results: dict[tuple[str, str], CalibrationResult] = {}
    for surface_key, surface in surfaces.items():
        for ambient_key, ambient in ambients.items():
            sensor = GP2D120(
                params=specimen_params,
                rng=np.random.default_rng(rng.integers(2**32)),
                surface=surface,
                ambient=ambient,
            )
            results[(surface_key, ambient_key)] = calibrate(
                sensor, readings_per_point=readings_per_point
            )
    return results
