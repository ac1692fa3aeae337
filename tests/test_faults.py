"""Tests for the fault-injection subsystem (repro.faults).

Covers the FaultWindow/FaultPlan schedule machinery, every hardware
injection point, the firmware's recovery behaviors, the
injection↔recovery pairing invariant, and the determinism regression
(same seed + same plan → byte-identical traces).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.experiments.fault_sweep import run_fault_sweep, unpaired_faults
from repro.faults import (
    DEFAULT_SWEEP_KINDS,
    FAULT_CHANNEL,
    RECOVERY_CHANNEL,
    FaultKind,
    FaultPlan,
    FaultWindow,
)


def make_device(plan, seed=0, labels=None):
    labels = labels or [f"Item {i}" for i in range(8)]
    return DistScroll(build_menu(labels), seed=seed, fault_plan=plan)


class TestFaultWindow:
    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            FaultWindow(FaultKind.ADC_GLITCH, start_s=-0.1, duration_s=1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultWindow(FaultKind.ADC_GLITCH, start_s=0.0, duration_s=0.0)

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate"):
            FaultWindow(
                FaultKind.I2C_ERROR, start_s=0.0, duration_s=1.0, rate=rate
            )

    def test_half_open_interval(self):
        w = FaultWindow(FaultKind.RF_DROP, start_s=1.0, duration_s=0.5)
        assert not w.active(0.999)
        assert w.active(1.0)
        assert w.active(1.499)
        assert not w.active(1.5)
        assert w.end_s == pytest.approx(1.5)

    def test_default_magnitudes_filled_per_kind(self):
        sag = FaultWindow(FaultKind.BATTERY_SAG, start_s=0.0, duration_s=1.0)
        occ = FaultWindow(
            FaultKind.SENSOR_OCCLUSION, start_s=0.0, duration_s=1.0
        )
        assert sag.magnitude == pytest.approx(3.5)
        assert occ.magnitude == pytest.approx(2.2)

    def test_explicit_magnitude_preserved(self):
        w = FaultWindow(
            FaultKind.BATTERY_SAG, start_s=0.0, duration_s=1.0, magnitude=0.2
        )
        assert w.magnitude == pytest.approx(0.2)


class TestFaultPlanSchedule:
    def test_zero_intensity_is_empty(self):
        assert FaultPlan.for_intensity(0.0, duration_s=10.0).windows == []

    @pytest.mark.parametrize("intensity", [-0.1, 1.1])
    def test_bad_intensity_rejected(self, intensity):
        with pytest.raises(ValueError, match="intensity"):
            FaultPlan.for_intensity(intensity, duration_s=5.0)
        with pytest.raises(ValueError, match="intensity"):
            FaultPlan.random(5.0, intensity)

    def test_for_intensity_windows_fit_the_horizon(self):
        plan = FaultPlan.for_intensity(0.7, duration_s=8.0)
        assert plan.windows
        assert all(w.start_s >= 0 and w.end_s <= 8.0 for w in plan.windows)
        assert {w.kind for w in plan.windows} == set(DEFAULT_SWEEP_KINDS)

    def test_for_intensity_coverage_grows_with_intensity(self):
        def covered(intensity):
            plan = FaultPlan.for_intensity(intensity, duration_s=10.0)
            return sum(w.duration_s for w in plan.windows)

        assert covered(0.2) < covered(0.5) < covered(0.9)

    def test_active_window_respects_target_scoping(self):
        scoped = FaultWindow(
            FaultKind.DISPLAY_RESET, start_s=0.0, duration_s=1.0, target="top"
        )
        plan = FaultPlan([scoped])
        assert plan.active_window(FaultKind.DISPLAY_RESET, 0.5, target="top")
        assert (
            plan.active_window(FaultKind.DISPLAY_RESET, 0.5, target="bottom")
            is None
        )
        # An unscoped window matches any target.
        plan = FaultPlan(
            [FaultWindow(FaultKind.DISPLAY_RESET, start_s=0.0, duration_s=1.0)]
        )
        assert plan.active_window(FaultKind.DISPLAY_RESET, 0.5, target="bottom")

    def test_expired_windows_pop_once_in_end_order(self):
        plan = FaultPlan(
            [
                FaultWindow(FaultKind.RF_DROP, start_s=0.0, duration_s=2.0),
                FaultWindow(FaultKind.RF_DROP, start_s=0.5, duration_s=0.5),
            ]
        )
        assert plan.expired_windows(0.9) == []
        first = plan.expired_windows(1.0)
        assert [w.end_s for _, w in first] == [1.0]
        assert not plan.exhausted
        second = plan.expired_windows(10.0)
        assert [w.end_s for _, w in second] == [2.0]
        assert plan.exhausted
        assert plan.expired_windows(10.0) == []

    def test_install_twice_rejected(self):
        plan = FaultPlan.for_intensity(0.3, duration_s=1.0)
        device = make_device(plan)
        with pytest.raises(RuntimeError, match="already installed"):
            plan.install(device.board)

    def test_random_same_seed_identical_schedules(self):
        a = FaultPlan.random(6.0, 0.5, seed=11)
        b = FaultPlan.random(6.0, 0.5, seed=11)
        assert a.windows == b.windows
        assert a.windows  # non-trivial at this intensity

    def test_random_different_seeds_differ(self):
        a = FaultPlan.random(6.0, 0.5, seed=11)
        b = FaultPlan.random(6.0, 0.5, seed=12)
        assert a.windows != b.windows


class TestHardwareInjection:
    def test_adc_stuck_latches_first_code(self):
        plan = FaultPlan(
            [FaultWindow(FaultKind.ADC_STUCK, start_s=0.2, duration_s=0.4)]
        )
        device = make_device(plan)
        device.hold_at(12.0)
        device.run_for(0.3)
        stuck_near = device.board.adc.sample(device.sim.now, 0)
        device.hold_at(24.0)  # large move: the healthy code would change a lot
        device.run_for(0.2)
        assert device.board.adc.sample(device.sim.now, 0) == stuck_near
        device.run_for(0.5)  # window over: conversions track the hand again
        assert device.board.adc.sample(device.sim.now, 0) != stuck_near

    def test_adc_glitch_traced_and_recovered(self):
        plan = FaultPlan(
            [FaultWindow(FaultKind.ADC_GLITCH, start_s=0.2, duration_s=0.6)]
        )
        device = make_device(plan)
        device.hold_at(15.0)
        device.run_for(1.5)
        assert plan.injections[FaultKind.ADC_GLITCH] > 0
        assert plan.recoveries[FaultKind.ADC_GLITCH] >= 1
        assert unpaired_faults(device) == set()

    def test_i2c_errors_recovered_by_render_backoff(self):
        plan = FaultPlan(
            [
                FaultWindow(
                    FaultKind.I2C_ERROR, start_s=0.2, duration_s=1.6, rate=1.0
                )
            ]
        )
        device = make_device(plan)
        # Keep the selection changing so renders (bus traffic) keep coming.
        for d in (8.0, 20.0, 10.0, 24.0, 14.0):
            device.hold_at(d)
            device.run_for(0.4)
        device.run_for(1.0)
        assert device.board.i2c.injected_errors > 0
        if device.firmware.i2c_render_failures:
            assert device.firmware.i2c_render_recoveries >= 1
        assert unpaired_faults(device) == set()

    def test_display_reset_triggers_watchdog_rerender(self):
        plan = FaultPlan(
            [FaultWindow(FaultKind.DISPLAY_RESET, start_s=0.3, duration_s=0.5)]
        )
        device = make_device(plan)
        device.hold_at(8.0)
        device.run_for(0.25)
        device.hold_at(20.0)  # forces a render inside the window
        device.run_for(1.5)
        resets = (
            device.board.display_top.resets + device.board.display_bottom.resets
        )
        assert resets >= 1
        assert device.firmware.display_watchdog_rerenders >= 1
        # The panel is not left blank: the highlighted label was re-drawn.
        lines = (
            device.board.display_top.lines + device.board.display_bottom.lines
        )
        assert any(line.strip() for line in lines)
        assert unpaired_faults(device) == set()

    def test_rf_drop_and_duplicate_counted(self):
        plan = FaultPlan(
            [
                FaultWindow(FaultKind.RF_DROP, start_s=0.2, duration_s=0.8),
                FaultWindow(
                    FaultKind.RF_DUPLICATE, start_s=1.2, duration_s=0.8
                ),
            ]
        )
        device = make_device(plan)
        # Scroll around to generate RF traffic throughout both windows.
        for d in (8.0, 20.0, 10.0, 24.0, 12.0):
            device.hold_at(d)
            device.run_for(0.5)
        assert device.board.rf_link.packets_lost > 0
        assert device.board.rf_link.packets_duplicated > 0
        assert unpaired_faults(device) == set()

    def test_battery_sag_holds_then_resumes_without_halt(self):
        plan = FaultPlan(
            [FaultWindow(FaultKind.BATTERY_SAG, start_s=0.4, duration_s=0.4)]
        )
        device = make_device(plan)
        device.hold_at(10.0)
        device.run_for(0.3)
        before = device.highlighted_index
        device.run_for(0.6)  # ride through the sag window
        assert device.firmware.brownout_holds >= 1
        assert not device.firmware.halted
        # After the window the firmware re-acquires and tracks the hand.
        device.hold_at(24.0)
        device.run_for(1.0)
        assert device.highlighted_index != before
        assert unpaired_faults(device) == set()

    def test_sensor_dropout_does_not_corrupt_selection(self):
        plan = FaultPlan(
            [FaultWindow(FaultKind.SENSOR_DROPOUT, start_s=0.5, duration_s=0.4)]
        )
        device = make_device(plan)
        device.hold_at(10.0)
        device.run_for(0.45)
        held = device.highlighted_index
        device.run_for(0.4)  # dropout: floor voltage, out-of-range reading
        # The plausibility gate keeps the last valid selection.
        assert device.highlighted_index == held
        device.run_for(1.0)
        assert unpaired_faults(device) == set()

    def test_sensor_occlusion_traced(self):
        plan = FaultPlan(
            [
                FaultWindow(
                    FaultKind.SENSOR_OCCLUSION, start_s=0.5, duration_s=0.4
                )
            ]
        )
        device = make_device(plan)
        device.hold_at(15.0)
        device.run_for(1.5)
        assert plan.injections[FaultKind.SENSOR_OCCLUSION] == 1
        assert unpaired_faults(device) == set()


class TestPairingInvariant:
    def test_every_injection_paired_with_recovery(self):
        plan = FaultPlan.random(3.0, 0.6, seed=5)
        device = make_device(plan, seed=3)
        for d in (8.0, 18.0, 12.0, 24.0):
            device.hold_at(d)
            device.run_for(1.0)
        assert plan.total_injections > 0
        assert plan.exhausted
        assert unpaired_faults(device) == set()
        faults = device.tracer.get(FAULT_CHANNEL)
        recoveries = device.tracer.get(RECOVERY_CHANNEL)
        assert faults is not None and len(faults) == plan.total_injections
        assert recoveries is not None and len(recoveries) == (
            plan.total_recoveries
        )

    def test_healthy_device_has_no_fault_channels(self, quiet_device):
        quiet_device.hold_at(15.0)
        quiet_device.run_for(1.0)
        assert quiet_device.tracer.get(FAULT_CHANNEL) is None
        assert quiet_device.tracer.get(RECOVERY_CHANNEL) is None


class TestDeterminismRegression:
    """ISSUE satellite: trace bytes are a function of the seed alone."""

    def _run(self, seed, plan_seed):
        plan = FaultPlan.random(2.5, 0.5, seed=plan_seed)
        device = make_device(plan, seed=seed)
        for d in (9.0, 21.0, 13.0):
            device.hold_at(d)
            device.run_for(1.0)
        return device

    def test_same_seed_and_plan_byte_identical_traces(self):
        a = self._run(seed=7, plan_seed=3)
        b = self._run(seed=7, plan_seed=3)
        blob = a.tracer.serialize()
        assert blob == b.tracer.serialize()
        assert blob  # the serialization is non-trivial
        assert a.tracer.get(FAULT_CHANNEL) is not None

    def test_different_device_seed_differs(self):
        a = self._run(seed=7, plan_seed=3)
        b = self._run(seed=8, plan_seed=3)
        assert a.tracer.serialize() != b.tracer.serialize()

    def test_different_plan_seed_differs(self):
        a = self._run(seed=7, plan_seed=3)
        b = self._run(seed=7, plan_seed=4)
        assert a.tracer.serialize() != b.tracer.serialize()

    def test_healthy_run_unchanged_by_faults_import(self, flat_labels):
        """Faults disabled → same trace as a device built without the
        subsystem ever being mentioned (the hooks stay None)."""
        a = DistScroll(build_menu(flat_labels), seed=0, noisy=False)
        b = DistScroll(build_menu(flat_labels), seed=0, noisy=False)
        for device in (a, b):
            device.hold_at(14.0)
            device.run_for(1.0)
        assert a.board.adc.fault_hook is None
        assert a.tracer.serialize() == b.tracer.serialize()


class TestFaultSweepExperiment:
    def test_sweep_error_rate_monotone_and_paired(self):
        result = run_fault_sweep(
            seed=0, intensities=(0.0, 0.6), trials=6, dwell_s=0.8
        )
        rates = result.column("error_rate")
        assert rates[0] <= rates[-1]
        assert all(v == 0 for v in result.column("unpaired_faults"))
        injected = result.column("faults_injected")
        assert injected[0] == 0 and injected[-1] > 0

    def test_two_point_sweep_at_eight_trials(self):
        result = run_fault_sweep(seed=0, intensities=(0.0, 0.6), trials=8)
        rates = result.column("error_rate")
        assert rates[-1] >= rates[0]
        assert all(v == 0 for v in result.column("unpaired_faults"))
