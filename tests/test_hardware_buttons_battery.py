"""Tests for buttons (bounce + debounce), battery, potentiometer, MCU."""

from __future__ import annotations

import pytest

from repro.hardware.battery import Battery, BatteryParams
from repro.hardware.buttons import (
    Button,
    ButtonSpec,
    ButtonPosition,
    DebouncedButton,
    RIGHT_HANDED_LAYOUT,
    SINGLE_LARGE_BUTTON_LAYOUT,
    TWO_BUTTON_SLIDABLE_LAYOUT,
)
from repro.hardware.mcu import MemoryBudgetError, PIC18F452
from repro.hardware.adc import ADC
from repro.hardware.potentiometer import Potentiometer


class TestLayouts:
    def test_prototype_layout_matches_paper(self):
        """Three buttons: one top-right (thumb), two middle-left (§4.5)."""
        layout = RIGHT_HANDED_LAYOUT
        assert len(layout.buttons) == 3
        select = layout.spec("select")
        assert select.position is ButtonPosition.TOP_RIGHT
        assert select.thumb_operable
        assert not layout.ambidextrous

    def test_final_design_candidates_are_ambidextrous(self):
        assert TWO_BUTTON_SLIDABLE_LAYOUT.ambidextrous
        assert SINGLE_LARGE_BUTTON_LAYOUT.ambidextrous

    def test_large_button_is_larger(self):
        large = SINGLE_LARGE_BUTTON_LAYOUT.spec("select")
        normal = RIGHT_HANDED_LAYOUT.spec("select")
        assert large.area_mm2 > 5 * normal.area_mm2

    def test_unknown_button_raises(self):
        with pytest.raises(KeyError):
            RIGHT_HANDED_LAYOUT.spec("fire")


class TestButtonBounce:
    def test_ideal_button_clean_edges(self, sim):
        spec = ButtonSpec("select", ButtonPosition.TOP_RIGHT, True)
        button = Button(sim, spec, rng=None)
        button.press()
        assert button.closed
        button.release()
        assert not button.closed

    def test_bouncy_button_settles(self, sim):
        spec = ButtonSpec("select", ButtonPosition.TOP_RIGHT, True)
        button = Button(sim, spec, rng=sim.spawn_rng())
        button.press()
        sim.run_until(sim.now + 0.02)
        assert button.closed
        button.release()
        sim.run_until(sim.now + 0.02)
        assert not button.closed

    def test_release_supersedes_pending_press_burst(self, sim):
        """A press burst still pending when the finger lets go must not
        close the contact after the release's own burst has opened it."""

        class _Rng:
            def integers(self, low, high):
                return 3

            def random(self):
                return 0.0

        spec = ButtonSpec("select", ButtonPosition.TOP_RIGHT, True)
        button = Button(sim, spec, rng=_Rng())
        start = sim.now
        button.press()
        sim.run_until(start + 0.001)
        button.release()
        sim.run_until(start + 0.0045)
        assert not button.closed


class TestDebounce:
    def _make(self, sim, rng=True):
        spec = ButtonSpec("select", ButtonPosition.TOP_RIGHT, True)
        raw = Button(sim, spec, rng=sim.spawn_rng() if rng else None)
        presses = []
        deb = DebouncedButton(
            button=raw, on_press=lambda: presses.append(sim.now)
        )
        return raw, deb, presses

    def _poll(self, sim, deb, duration, hz=100):
        end = sim.now + duration
        while sim.now < end:
            sim.run_until(sim.now + 1.0 / hz)
            deb.poll(sim.now)

    def test_single_press_single_event(self, sim):
        raw, deb, presses = self._make(sim)
        raw.press()
        self._poll(sim, deb, 0.1)
        raw.release()
        self._poll(sim, deb, 0.1)
        assert len(presses) == 1
        assert deb.press_count == 1

    def test_bounce_does_not_double_fire(self, sim):
        raw, deb, presses = self._make(sim)
        for _ in range(5):
            raw.press()
            self._poll(sim, deb, 0.08)
            raw.release()
            self._poll(sim, deb, 0.08)
        assert len(presses) == 5

    def test_too_short_press_ignored(self, sim):
        raw, deb, presses = self._make(sim, rng=False)
        raw.press()
        # Poll for far less than the stable time.
        sim.run_until(sim.now + 0.002)
        deb.poll(sim.now)
        raw.release()
        sim.run_until(sim.now + 0.002)
        deb.poll(sim.now)
        self._poll(sim, deb, 0.1)
        assert presses == []


class TestBattery:
    def test_fresh_battery_voltage(self):
        battery = Battery()
        assert battery.terminal_voltage() == pytest.approx(9.4, abs=0.1)
        assert battery.state_of_charge == 1.0

    def test_discharge_lowers_voltage(self):
        battery = Battery()
        battery.draw(20.0, 3600 * 20)  # 400 mAh
        assert battery.state_of_charge < 0.5
        assert battery.terminal_voltage() < 8.5

    def test_load_sag(self):
        battery = Battery()
        ocv = battery.open_circuit_voltage()
        battery.draw(500.0, 0.001)
        assert battery.terminal_voltage() < ocv

    def test_brownout_when_flat(self):
        battery = Battery()
        battery.draw(20.0, 3600 * 30)
        assert battery.browned_out

    def test_replace_restores(self):
        battery = Battery()
        battery.draw(20.0, 3600 * 30)
        battery.replace()
        assert battery.state_of_charge == 1.0
        assert not battery.browned_out

    def test_invalid_draw_rejected(self):
        with pytest.raises(ValueError):
            Battery().draw(-1.0, 1.0)

    def test_capacity_param(self):
        small = Battery(BatteryParams(capacity_mah=100.0))
        small.draw(100.0, 3600 / 2)
        assert small.state_of_charge == pytest.approx(0.5)


class TestPotentiometer:
    def test_divider(self):
        pot = Potentiometer(position=0.3)
        assert pot.wiper_voltage(5.0) == pytest.approx(1.5)

    def test_travel_clamped(self):
        pot = Potentiometer()
        pot.set_position(2.0)
        assert pot.position == 1.0
        pot.set_position(-1.0)
        assert pot.position == 0.0

    def test_invalid_resistance(self):
        with pytest.raises(ValueError):
            Potentiometer(total_resistance_ohm=0.0)


class TestMCU:
    def _mcu(self):
        return PIC18F452(adc=ADC(rng=None))

    def test_memory_budget_enforced(self):
        mcu = self._mcu()
        mcu.allocate("app", flash_bytes=30 * 1024, ram_bytes=1000)
        with pytest.raises(MemoryBudgetError):
            mcu.allocate("too-big", flash_bytes=4 * 1024)
        with pytest.raises(MemoryBudgetError):
            mcu.allocate("too-big", ram_bytes=600)

    def test_free_releases(self):
        mcu = self._mcu()
        mcu.allocate("a", flash_bytes=1000, ram_bytes=100)
        mcu.free("a")
        assert mcu.flash_used == 0
        assert mcu.ram_used == 0

    def test_part_limits_match_paper(self):
        """'32 kbytes of flash memory and 1.5 kbytes RAM' (§4)."""
        mcu = self._mcu()
        assert mcu.params.flash_bytes == 32 * 1024
        assert mcu.params.ram_bytes == 1536

    def test_tick_utilization(self):
        mcu = self._mcu()
        mcu.begin_tick()
        mcu.execute(100_000)
        assert mcu.tick_utilization(0.02) == pytest.approx(0.5)

    def test_memory_report(self):
        mcu = self._mcu()
        mcu.allocate("a", flash_bytes=10, ram_bytes=1)
        mcu.allocate("a", flash_bytes=5)
        mcu.allocate("b", ram_bytes=2)
        report = mcu.memory_report()
        assert report["a"] == (15, 1)
        assert report["b"] == (0, 2)

    def test_power_draw_reaches_battery(self):
        battery = Battery()
        mcu = PIC18F452(adc=ADC(rng=None), battery=battery)
        mcu.consume_power(3600.0)
        assert battery.total_drawn_mah == pytest.approx(
            mcu.params.run_current_ma
        )
