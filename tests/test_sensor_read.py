"""The GP2D120 read matches its numpy formulation, draw for draw.

``GP2D120.output_voltage`` clamps with :func:`repro.signal.scalar.clamp`
instead of ``float(np.clip(...))`` and draws its noise as
``0.0 + noise_rms * rng.standard_normal()`` instead of
``rng.normal(0.0, noise_rms)``.  These tests pin the read against the
numpy formulation written out below, on twin generators, over every
branch the read has: fresh and held cycles, the fold-back and contact
regimes, beyond max range, a saturating output, a corrupting surface,
an ambient noise factor, fault-hook overrides outside the output range
and a noise-free sensor.  They also guard against a numpy scalar call
creeping back into the read.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.gp2d120 import SENSOR_MAX_CM, GP2D120, GP2D120Params
from repro.sensors.surfaces import (
    AMBIENT_CONDITIONS,
    CLOTHING,
    REFERENCE_LIGHT,
    REFERENCE_SURFACE,
    AmbientLight,
    Surface,
)

Hook = Callable[[float, float], Optional[float]]


class NumpyRead:
    """``GP2D120.output_voltage`` in its numpy formulation."""

    def __init__(self, sensor: GP2D120, rng: Optional[np.random.Generator]):
        self.sensor = sensor
        self.rng = rng
        self.held: Optional[float] = None
        self.last_cycle = -1

    def ideal(self, distance_cm: float) -> float:
        params = self.sensor.params
        surface = self.sensor.surface
        d = float(distance_cm)
        max_range = min(SENSOR_MAX_CM, surface.max_range_cm)
        if d <= 0.0:
            voltage = params.floor_voltage
        elif d < params.peak_distance_cm:
            fraction = d / params.peak_distance_cm
            span = params.peak_voltage - params.floor_voltage
            voltage = params.floor_voltage + span * fraction**0.8
        elif d <= max_range:
            voltage = params.in_range_voltage(d)
        else:
            voltage = params.floor_voltage
        voltage *= surface.gain_factor
        return float(np.clip(voltage, 0.0, params.saturation_voltage))

    def measure(self, distance_cm: float) -> float:
        voltage = self.ideal(distance_cm)
        rng = self.rng
        if rng is None:
            return voltage
        params = self.sensor.params
        if rng.random() < self.sensor.surface.corruption_probability:
            return float(rng.uniform(params.floor_voltage, params.peak_voltage))
        noise_rms = params.noise_rms * self.sensor.ambient.noise_factor
        noisy = voltage + rng.normal(0.0, noise_rms)
        return float(np.clip(noisy, 0.0, params.saturation_voltage))

    def __call__(self, time_s: float, distance_cm: float) -> float:
        params = self.sensor.params
        cycle = int(time_s / params.cycle_time_s)
        if cycle != self.last_cycle or self.held is None:
            self.last_cycle = cycle
            self.held = self.measure(distance_cm)
        hook = self.sensor.fault_hook
        if hook is not None:
            override = hook(time_s, self.held)
            if override is not None:
                return float(
                    np.clip(override, 0.0, params.saturation_voltage)
                )
        return self.held


def pin(
    seed: Optional[int],
    reads: list[tuple[float, float]],
    params: GP2D120Params = GP2D120Params(),
    surface: Surface = REFERENCE_SURFACE,
    ambient: AmbientLight = REFERENCE_LIGHT,
    fault_hook: Optional[Hook] = None,
) -> list[float]:
    """Replay ``(dt, distance)`` reads on the sensor and its numpy twin.

    Asserts equal readings, equal held state and equal generator state
    after the last read; returns the readings.
    """
    rngs = (None, None) if seed is None else (
        np.random.default_rng(seed), np.random.default_rng(seed)
    )
    sensor = GP2D120(
        params=params, rng=rngs[0], surface=surface, ambient=ambient,
        fault_hook=fault_hook,
    )
    twin = NumpyRead(sensor, rngs[1])
    now = 0.0
    readings = []
    for dt, distance in reads:
        now += dt
        reading = sensor.output_voltage(now, distance)
        assert reading == twin(now, distance), (now, distance)
        assert type(reading) is float
        readings.append(reading)
    assert sensor._held_voltage == twin.held
    assert sensor._last_cycle_index == twin.last_cycle
    if seed is not None:
        assert rngs[0].random() == rngs[1].random()
    return readings


CYCLE = GP2D120Params().cycle_time_s
seeds = st.integers(0, 2**63 - 1)
#: Steps shorter than a cycle (held reads) and longer (fresh ones).
steps = st.floats(0.1 * CYCLE, 3.0 * CYCLE)
#: Contact, fold-back, the monotone branch and beyond max range.
distances = st.floats(-1.0, 40.0, allow_nan=False)
reads = st.lists(st.tuples(steps, distances), min_size=1, max_size=60)


class TestNumpyTwin:
    @given(seed=seeds, reads=reads)
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_rng_stream(self, seed, reads):
        pin(seed, reads)

    def test_fresh_and_held_reads(self):
        readings = pin(1, [(1.5 * CYCLE, 12.0), (0.2 * CYCLE, 12.0),
                           (0.2 * CYCLE, 20.0), (1.1 * CYCLE, 20.0)])
        assert readings[0] == readings[1] == readings[2] != readings[3]

    @pytest.mark.parametrize(
        "distance", [-1.0, 0.0, 0.5, 2.0, 3.9, 30.0, 30.5, 35.0]
    )
    def test_every_regime(self, distance):
        pin(2, [(1.1 * CYCLE, distance)] * 8)

    def test_saturating_output(self):
        # A 3 V supply saturates at 2.7 V, below the ~2.75 V peak; the
        # white surface's gain pushes the peak further up.
        params = GP2D120Params(supply_voltage=3.0)
        readings = pin(
            3, [(1.1 * CYCLE, 4.0)] * 40, params=params,
            surface=CLOTHING["white_shirt"],
        )
        assert params.saturation_voltage in readings

    @given(seed=seeds, reads=reads)
    @settings(max_examples=40, deadline=None)
    def test_corruption_gate_consumes_stream_identically(self, seed, reads):
        pin(seed, reads, surface=CLOTHING["mirror_patchwork"])

    def test_ambient_noise_factor(self):
        sunlight = AMBIENT_CONDITIONS["sunlight"]
        assert sunlight.noise_factor > 1.0
        pin(4, [(1.1 * CYCLE, 10.0)] * 50, ambient=sunlight)

    @pytest.mark.parametrize("override", [9.0, -1.0, 2, None])
    def test_fault_hook_override_clamps_like_numpy(self, override):
        readings = pin(
            5, [(0.6 * CYCLE, 15.0)] * 10,
            fault_hook=lambda t, _v: override if t > 2 * CYCLE else None,
        )
        if override == 9.0:
            assert GP2D120Params().saturation_voltage in readings
        if override == -1.0:
            assert 0.0 in readings

    def test_noise_free_sensor_returns_ideal(self):
        readings = pin(None, [(1.1 * CYCLE, d) for d in (-1.0, 2.0, 10.0, 35.0)])
        sensor = GP2D120(rng=None)
        assert readings == [
            sensor.ideal_voltage(d) for d in (-1.0, 2.0, 10.0, 35.0)
        ]


class TestHeldRead:
    def test_held_read_draws_nothing(self):
        rng = np.random.default_rng(3)
        sensor = GP2D120(rng=rng)
        first = sensor.output_voltage(1.5 * CYCLE, 10.0)
        state = rng.bit_generator.state
        assert sensor.output_voltage(1.6 * CYCLE, 10.0) == first
        assert sensor.output_voltage(1.7 * CYCLE, 25.0) == first
        assert rng.bit_generator.state == state


class _NoNormal:
    """A generator that refuses ``normal``, the draw the read replaced."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.random = self._rng.random
        self.standard_normal = self._rng.standard_normal
        self.uniform = self._rng.uniform

    def normal(self, *_args, **_kwargs):
        raise AssertionError("rng.normal on the sensor read")


class TestNoNumpyScalarCalls:
    def test_read_calls_no_numpy_clip_or_normal(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("np.clip on the sensor read")

        monkeypatch.setattr(np, "clip", refuse)
        for surface in (REFERENCE_SURFACE, CLOTHING["mirror_patchwork"]):
            sensor = GP2D120(
                rng=_NoNormal(0), surface=surface,  # type: ignore[arg-type]
                fault_hook=lambda t, _v: 9.0 if t > 1.0 else None,
            )
            for k in range(1, 60):
                sensor.output_voltage(k * 1.1 * CYCLE, 2.0 + k / 2.0)
