"""Physics model of the Sharp GP2D120 infra-red distance sensor.

The GP2D120 is the integral part of the DistScroll hardware (Section 4.2).
It triangulates: an IR LED emits a modulated beam, a position-sensitive
detector measures where the reflection lands, and an internal circuit
outputs an analog voltage.  The datasheet curve — and the paper's Figure 4,
which reproduces it via the Smart-Its ADC — has three regimes:

* **fold-back region, 0–4 cm** — voltage *rises steeply* with distance up
  to a peak near 4 cm, so a reading there is ambiguous with a far reading
  ("it cannot be detected if the device is moved away or towards the
  user").  The paper notes advanced users exploit this steep region for
  faster scrolling.
* **measurement range, 4–30 cm** — voltage falls monotonically following
  approximately ``V = a/(d+b) + c`` ("the sensor values are not linear in
  the measurement range").
* **out of range, > 30 cm** — too little light returns; the output drops
  to a floor and "no measurement can be made".

The model layers surface gain, ambient-light noise, shot noise, a 38 ms
internal measurement cycle (per datasheet), and optional corrupted readings
on pathological specular surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.sensors.surfaces import (
    REFERENCE_LIGHT,
    REFERENCE_SURFACE,
    AmbientLight,
    Surface,
)
from repro.signal.scalar import clamp

__all__ = ["GP2D120Params", "GP2D120", "SENSOR_MIN_CM", "SENSOR_MAX_CM"]

#: Nominal measurement range of the GP2D120 (datasheet; quoted in §4.2).
SENSOR_MIN_CM = 4.0
SENSOR_MAX_CM = 30.0


@dataclass(frozen=True)
class GP2D120Params:
    """Electrical parameters of one sensor specimen.

    The defaults reproduce the datasheet typical curve: about 2.75 V at
    4 cm falling to about 0.40 V at 30 cm.  Real specimens vary by a few
    percent; :meth:`GP2D120.specimen` draws a perturbed parameter set so
    experiments can model unit-to-unit variation.

    Attributes
    ----------
    curve_a, curve_b, curve_c:
        Parameters of the in-range law ``V = a/(d+b) + c`` (V*cm, cm, V).
    peak_distance_cm:
        Distance of the fold-back peak (nominally 4 cm).
    floor_voltage:
        Output when nothing reflects (beyond max range), in volts.
    noise_rms:
        RMS of the additive Gaussian output noise at reference conditions.
    cycle_time_s:
        Internal measurement period; the output is a zero-order hold that
        only updates once per cycle (38.3 ms +- 9.6 ms in the datasheet).
    supply_voltage:
        Nominal supply; output saturates at ``supply_voltage - 0.3``.
    """

    curve_a: float = 11.8
    curve_b: float = 0.42
    curve_c: float = 0.08
    peak_distance_cm: float = SENSOR_MIN_CM
    floor_voltage: float = 0.25
    noise_rms: float = 0.012
    cycle_time_s: float = 0.0383
    supply_voltage: float = 5.0

    def __post_init__(self) -> None:
        if self.cycle_time_s <= 0.0:
            raise ValueError(
                f"cycle_time_s must be positive, got {self.cycle_time_s}: the "
                "GP2D120 output is a zero-order hold over its internal "
                "measurement cycle (38.3 ms +- 9.6 ms in the datasheet), so a "
                "non-positive period has no physical meaning — a perturbed "
                "specimen must keep cycle_time_s > 0"
            )

    def in_range_voltage(self, distance_cm: float) -> float:
        """Ideal (noise-free) voltage on the monotone 4–30 cm branch."""
        return self.curve_a / (distance_cm + self.curve_b) + self.curve_c

    @property
    def peak_voltage(self) -> float:
        """Voltage at the fold-back peak (~4 cm)."""
        return self.in_range_voltage(self.peak_distance_cm)

    @property
    def saturation_voltage(self) -> float:
        """Hard ceiling on the analog output."""
        return self.supply_voltage - 0.3


@dataclass
class GP2D120:
    """A simulated GP2D120 specimen measuring the distance to a surface.

    The sensor is *passive* in the simulation: callers (the ADC model, or
    calibration sweeps) ask for the output voltage given the current true
    distance.  Internally the sensor only refreshes its held output once
    per measurement cycle, which is what gives the DistScroll its ~26 Hz
    effective input rate.

    Parameters
    ----------
    params:
        Electrical parameters (a specimen of the datasheet part).
    rng:
        Random generator for noise; pass ``None`` for a noise-free ideal
        sensor (useful in unit tests and for computing island centers).
    surface:
        What the beam currently hits; defaults to the reference surface.
    ambient:
        Lighting conditions; defaults to indoor reference.
    """

    params: GP2D120Params = field(default_factory=GP2D120Params)
    rng: Optional[np.random.Generator] = None
    surface: Surface = REFERENCE_SURFACE
    ambient: AmbientLight = REFERENCE_LIGHT
    #: Optional fault hook ``(time_s, voltage) -> voltage | None``: lets a
    #: :class:`repro.faults.FaultPlan` occlude the beam or drop the return
    #: signal entirely (see :mod:`repro.faults`).
    fault_hook: Optional[Callable[[float, float], Optional[float]]] = None

    def __post_init__(self) -> None:
        self._held_voltage: Optional[float] = None
        self._last_cycle_index: int = -1

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def specimen(
        cls,
        rng: np.random.Generator,
        surface: Surface = REFERENCE_SURFACE,
        ambient: AmbientLight = REFERENCE_LIGHT,
        spread: float = 0.04,
    ) -> "GP2D120":
        """Draw a unit with datasheet-typical part-to-part variation.

        ``spread`` is the relative 1-sigma variation applied to the curve
        parameters (the datasheet tolerances translate to a few percent).
        """
        base = GP2D120Params()
        params = GP2D120Params(
            curve_a=base.curve_a * (1.0 + rng.normal(0.0, spread)),
            curve_b=base.curve_b + rng.normal(0.0, spread),
            curve_c=base.curve_c + rng.normal(0.0, spread * 0.5),
            peak_distance_cm=base.peak_distance_cm + rng.normal(0.0, 0.15),
            floor_voltage=base.floor_voltage,
            noise_rms=base.noise_rms * (1.0 + abs(rng.normal(0.0, spread))),
            cycle_time_s=base.cycle_time_s + rng.normal(0.0, 0.002),
            supply_voltage=base.supply_voltage,
        )
        return cls(params=params, rng=rng, surface=surface, ambient=ambient)

    # ------------------------------------------------------------------
    # ideal transfer function
    # ------------------------------------------------------------------
    def ideal_voltage(self, distance_cm: float) -> float:
        """Noise-free transfer function over the full distance axis.

        Implements the three regimes described in the module docstring.
        """
        params = self.params
        distance_cm = float(distance_cm)
        max_range = min(SENSOR_MAX_CM, self.surface.max_range_cm)
        if distance_cm <= 0.0:
            voltage = params.floor_voltage
        elif distance_cm < params.peak_distance_cm:
            # Fold-back: steep rise from near-floor at contact up to the
            # peak at ~4 cm.  The datasheet shows a roughly linear-in-d
            # climb that is much faster than the in-range decline.
            fraction = distance_cm / params.peak_distance_cm
            span = params.peak_voltage - params.floor_voltage
            voltage = params.floor_voltage + span * fraction**0.8
        elif distance_cm <= max_range:
            voltage = params.in_range_voltage(distance_cm)
        else:
            voltage = params.floor_voltage
        voltage *= self.surface.gain_factor
        return clamp(voltage, 0.0, params.saturation_voltage)

    def ideal_voltage_array(self, distances_cm: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`ideal_voltage`: one array op per regime.

        Bit-equal to calling :meth:`ideal_voltage` element by element (the
        property tests in ``tests/test_vectorized_sensing.py`` pin this):
        the same IEEE-754 operations run in the same order per element,
        only batched.  The island-map construction and the SENS-FOLD sweep
        run on it.
        """
        params = self.params
        d = np.atleast_1d(np.asarray(distances_cm, dtype=float))
        max_range = min(SENSOR_MAX_CM, self.surface.max_range_cm)
        out = np.full(d.shape, params.floor_voltage, dtype=float)
        floor_mask = d <= 0.0
        fold = ~floor_mask & (d < params.peak_distance_cm)
        if fold.any():
            # Per-element on purpose: numpy's vectorized pow can differ
            # from libm's (scalar **) by 1 ulp, which would break the
            # bit-equality contract.  The island maps never touch the
            # fold-back, so nothing is lost there.
            span = params.peak_voltage - params.floor_voltage
            floor = params.floor_voltage
            peak = params.peak_distance_cm
            out[fold] = [
                floor + span * (x / peak) ** 0.8 for x in d[fold]
            ]
        ranged = ~floor_mask & ~fold & (d <= max_range)
        if ranged.any():
            out[ranged] = params.in_range_voltage(d[ranged])
        out *= self.surface.gain_factor
        np.clip(out, 0.0, params.saturation_voltage, out=out)
        return out

    def in_range(self, distance_cm: float) -> bool:
        """Whether a distance lies on the unambiguous monotone branch."""
        max_range = min(SENSOR_MAX_CM, self.surface.max_range_cm)
        return self.params.peak_distance_cm <= distance_cm <= max_range

    # ------------------------------------------------------------------
    # sampled output
    # ------------------------------------------------------------------
    def output_voltage(self, time_s: float, distance_cm: float) -> float:
        """Analog output at simulated time ``time_s`` for the true distance.

        The internal measurement cycle means the output is a zero-order
        hold: within one ~38 ms cycle repeated reads return the same held
        value; a new measurement (with fresh noise, and possibly a
        corrupted reading on bad surfaces) happens once per cycle.
        """
        cycle = int(time_s / self.params.cycle_time_s)
        if cycle != self._last_cycle_index or self._held_voltage is None:
            self._last_cycle_index = cycle
            self._held_voltage = self._measure(distance_cm)
        if self.fault_hook is not None:
            override = self.fault_hook(time_s, self._held_voltage)
            if override is not None:
                return clamp(
                    float(override), 0.0, self.params.saturation_voltage
                )
        return self._held_voltage

    def _measure(self, distance_cm: float) -> float:
        """One fresh measurement: the ideal voltage plus this cycle's noise.

        ``0.0 + noise_rms * standard_normal()`` is the draw
        ``rng.normal(0.0, noise_rms)`` makes, and :func:`clamp` is
        ``float(np.clip(...))``, both without numpy's scalar dispatch.
        """
        voltage = self.ideal_voltage(distance_cm)
        rng = self.rng
        if rng is None:
            return voltage
        params = self.params
        if rng.random() < self.surface.corruption_probability:
            # Beam deflected by a specular boundary: the spot lands at an
            # essentially random position on the detector.
            return float(rng.uniform(params.floor_voltage, params.peak_voltage))
        noise_rms = params.noise_rms * self.ambient.noise_factor
        noisy = voltage + (0.0 + noise_rms * rng.standard_normal())
        return clamp(noisy, 0.0, params.saturation_voltage)

    # ------------------------------------------------------------------
    # inversion helpers (used by the island mapping)
    # ------------------------------------------------------------------
    def distance_for_voltage(self, voltage: float) -> float:
        """Distance (cm) on the monotone branch producing ``voltage``.

        Raises
        ------
        ValueError
            If the voltage lies outside the monotone branch's output span.
        """
        params = self.params
        gain = self.surface.gain_factor
        unscaled = voltage / gain
        v_near = params.peak_voltage
        v_far = params.in_range_voltage(min(SENSOR_MAX_CM, self.surface.max_range_cm))
        if not v_far <= unscaled <= v_near:
            raise ValueError(
                f"voltage {voltage:.3f} V outside monotone branch "
                f"[{v_far * gain:.3f}, {v_near * gain:.3f}] V"
            )
        return params.curve_a / (unscaled - params.curve_c) - params.curve_b
