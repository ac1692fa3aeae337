"""Tests for the ADXL311 model and the calibration sweep (Fig 4/5 code)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.sensors.adxl311 import ADXL311
from repro.sensors.calibration import calibrate, sweep_environments
from repro.sensors.gp2d120 import GP2D120
from repro.sensors.surfaces import AMBIENT_CONDITIONS, CLOTHING


class TestADXL311:
    def test_flat_attitude_reads_zero_g(self):
        accel = ADXL311(rng=None)
        gx, gy = accel.acceleration_g(0.0, 0.0)
        assert gx == 0.0
        assert gy == 0.0

    def test_ninety_degree_tilt_reads_one_g(self):
        accel = ADXL311(rng=None)
        gx, gy = accel.acceleration_g(math.pi / 2, 0.0)
        assert gy == pytest.approx(1.0)
        assert gx == pytest.approx(0.0)

    def test_zero_g_voltage_at_mid_supply(self):
        accel = ADXL311(rng=None)
        vx, vy = accel.output_voltages(0.0, 0.0)
        assert vx == pytest.approx(accel.params.zero_g_voltage)
        assert vy == pytest.approx(accel.params.zero_g_voltage)

    def test_tilt_roundtrip(self):
        accel = ADXL311(rng=None)
        for pitch, roll in ((0.2, -0.4), (0.0, 0.7), (-0.5, 0.0)):
            vx, vy = accel.output_voltages(pitch, roll)
            est_roll, est_pitch = accel.tilt_from_voltages(vx, vy)
            assert est_pitch == pytest.approx(pitch, abs=1e-6)
            assert est_roll == pytest.approx(roll, abs=1e-6)

    def test_range_clipping(self):
        accel = ADXL311(rng=None)
        gx, _ = accel.acceleration_g(0.0, math.pi / 2, linear_accel_g=(5.0, 0.0))
        assert gx == accel.params.range_g

    def test_noise_present_with_rng(self):
        accel = ADXL311(rng=np.random.default_rng(0))
        readings = {accel.output_voltages(0.0, 0.0)[0] for _ in range(10)}
        assert len(readings) > 1


class TestCalibration:
    def test_sweep_covers_range_in_order(self, rng):
        sensor = GP2D120.specimen(rng)
        result = calibrate(sensor, readings_per_point=4)
        distances = result.distances
        assert distances[0] == pytest.approx(4.0)
        assert distances[-1] >= 29.0
        assert (np.diff(distances) > 0).all()

    def test_fit_quality_matches_figure_4(self, rng):
        sensor = GP2D120.specimen(rng)
        result = calibrate(sensor, readings_per_point=16)
        assert result.hyperbola.r2 > 0.999
        assert result.max_abs_residual() < 0.05  # volts

    def test_log_fit_matches_figure_5(self, rng):
        sensor = GP2D120.specimen(rng)
        result = calibrate(sensor, readings_per_point=16)
        assert result.power_law.r2_log > 0.99

    def test_rejects_foldback_distances(self, rng):
        sensor = GP2D120.specimen(rng)
        with pytest.raises(ValueError):
            calibrate(sensor, distances_cm=np.array([2.0, 10.0, 20.0]))

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_fewer_than_one_reading_per_point(self, rng, count):
        sensor = GP2D120.specimen(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice" first
            with pytest.raises(ValueError, match="readings_per_point"):
                calibrate(sensor, readings_per_point=count)
        surfaces = {"white_shirt": CLOTHING["white_shirt"]}
        ambients = {"indoor": AMBIENT_CONDITIONS["indoor"]}
        with pytest.raises(ValueError, match="readings_per_point"):
            sweep_environments(rng, surfaces, ambients, readings_per_point=count)

    def test_std_reported_per_point(self, rng):
        sensor = GP2D120.specimen(rng)
        result = calibrate(sensor, readings_per_point=8)
        assert all(s.std_voltage >= 0 for s in result.samples)
        assert any(s.std_voltage > 0 for s in result.samples)

    def test_environment_sweep_keys(self, rng):
        surfaces = {k: CLOTHING[k] for k in ("white_shirt", "black_jacket")}
        ambients = {k: AMBIENT_CONDITIONS[k] for k in ("indoor",)}
        results = sweep_environments(rng, surfaces, ambients, readings_per_point=2)
        assert set(results) == {
            ("white_shirt", "indoor"),
            ("black_jacket", "indoor"),
        }

    def test_environment_sweep_same_specimen(self, rng):
        """Differences must come from the environment, not the part."""
        surfaces = {k: CLOTHING[k] for k in ("white_shirt", "gray_fleece")}
        ambients = {"indoor": AMBIENT_CONDITIONS["indoor"]}
        results = sweep_environments(rng, surfaces, ambients, readings_per_point=8)
        a = results[("white_shirt", "indoor")].hyperbola
        b = results[("gray_fleece", "indoor")].hyperbola
        assert a.a == pytest.approx(b.a, rel=0.1)
