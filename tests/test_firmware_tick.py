"""The firmware main loop's per-tick bookkeeping, against its exact forms.

The tick charges its fixed cycle cost once, skips button polls that
cannot change anything, and asks the battery a brownout question that
answers ``False`` without the discharge curve wherever the curve provably
cannot trip.  Each shortcut is checked here against the computation it
replaces:

* ``Battery.browned_out`` equals ``terminal_voltage() < cutoff_voltage``
  on every input, at and around the edges of the shortcut's region;
* a battery drained below the region halts the firmware on the same
  tick as the exact curve does;
* ``mcu.ticks``, ``total_instructions`` and ``tick_utilization`` equal
  the sums of the per-stage charges (buttons, ADC, filter, fusion,
  island lookup) plus every display line and RF packet;
* a bouncing press fires ``on_press`` on the tick a debouncer polled
  every tick fires it.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import firmware as firmware_module
from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.events import ButtonEvent
from repro.core.menu import build_menu
from repro.hardware.battery import Battery, BatteryParams
from repro.hardware.buttons import DebouncedButton
from repro.hardware.mcu import PIC18F452
from repro.sim.kernel import PeriodicTask

LABELS = [f"Item {i}" for i in range(30)]


def _exact(battery: Battery) -> bool:
    return battery.terminal_voltage() < battery.params.cutoff_voltage


# ---------------------------------------------------------------------------
# brownout
# ---------------------------------------------------------------------------
_SEGMENTS = list(zip(Battery._SOC_TUPLE, Battery._SOC_TUPLE[1:]))


@st.composite
def _battery_states(draw):
    params = BatteryParams(
        cutoff_voltage=draw(st.sampled_from([5.0, 6.0, 6.3, 7.45, 9.5]))
    )
    battery = Battery(params)
    floor, ceiling = battery._safe_charge_mah, battery._safe_load_ma
    capacity = params.capacity_mah
    lo, hi = draw(st.sampled_from(_SEGMENTS))
    in_segment = draw(st.floats(lo, hi)) * capacity
    charges = [in_segment, -1.0, 0.0, capacity]
    if math.isfinite(floor):
        charges += [floor, math.nextafter(floor, -math.inf),
                    math.nextafter(floor, math.inf)]
    battery._charge_mah = draw(st.sampled_from(charges))
    loads = [draw(st.floats(0.0, 2000.0)), 0.0]
    if ceiling > 0.0:
        loads += [
            draw(st.floats(0.0, 2.0 * ceiling)),
            ceiling,
            math.nextafter(ceiling, math.inf),
            math.nextafter(ceiling, -math.inf),
        ]
    battery.draw(draw(st.sampled_from(loads)), 0.0)
    sag = draw(st.none() | st.floats(-1.0, 3.0))
    if sag is not None:
        battery.fault_hook = lambda: sag
    return battery


class TestBrownoutCheck:
    @settings(max_examples=400, deadline=None)
    @given(battery=_battery_states())
    def test_equals_the_exact_curve(self, battery):
        assert battery.browned_out == _exact(battery)

    def test_region_edges_for_the_default_cell(self):
        """The floor sits on the 6.3 V knot; one ulp below it is exact."""
        battery = Battery()
        floor = battery._safe_charge_mah
        capacity = battery.params.capacity_mah
        assert floor / capacity >= 0.05
        assert math.nextafter(floor, -math.inf) / capacity < 0.05
        for charge in (floor, math.nextafter(floor, -math.inf)):
            for load in (
                battery._safe_load_ma,
                math.nextafter(battery._safe_load_ma, math.inf),
            ):
                battery._charge_mah = charge
                battery.draw(load, 0.0)
                assert battery.browned_out == _exact(battery)

    def test_region_skips_the_curve(self, monkeypatch):
        battery = Battery()
        battery.draw(18.0, 1.0)

        def curve(self):
            raise AssertionError("curve evaluated inside the safe region")

        monkeypatch.setattr(Battery, "terminal_voltage", curve)
        assert battery.browned_out is False
        battery.fault_hook = lambda: 0.0
        with pytest.raises(AssertionError, match="curve evaluated"):
            battery.browned_out

    def test_no_knot_above_cutoff_means_no_region(self):
        battery = Battery(BatteryParams(cutoff_voltage=9.5))
        assert battery._safe_charge_mah == math.inf
        assert battery.browned_out is True

    @pytest.mark.parametrize("field", ["capacity_mah", "internal_resistance_ohm"])
    def test_non_positive_parameters_mean_no_region(self, field):
        battery = Battery(BatteryParams(**{field: 0.0}))
        assert battery._safe_load_ma == -math.inf

    def _drain(self, exact: bool, monkeypatch) -> tuple[int, float]:
        """Run a device on a small cell from soc 0.2 until it browns out."""
        if exact:
            monkeypatch.setattr(Battery, "browned_out", property(_exact))
        device = DistScroll(build_menu(LABELS[:10]), seed=5)
        cell = Battery(BatteryParams(capacity_mah=5.0))
        cell._charge_mah = 0.2 * cell.params.capacity_mah
        device.board.battery = cell
        device.board.mcu.battery = cell
        device.hold_at(15.0)
        device.run_for(400.0)
        monkeypatch.undo()
        assert device.firmware.halted
        return device.board.mcu.ticks, cell.state_of_charge

    def test_drained_device_halts_on_the_exact_tick(self, monkeypatch):
        ticks, soc = self._drain(False, monkeypatch)
        exact_ticks, exact_soc = self._drain(True, monkeypatch)
        assert 0.0 < soc < 0.05  # drained through the region's floor
        assert ticks < 400.0 / DeviceConfig().firmware_period_s  # halted
        assert (ticks, soc) == (exact_ticks, exact_soc)


# ---------------------------------------------------------------------------
# cycle budget
# ---------------------------------------------------------------------------
def _stage_cycles(device: DistScroll) -> int:
    """One tick's fixed work as the per-stage ``execute`` calls charged it."""
    config = device.config
    cycles = firmware_module._COST_BUTTON_POLL * len(device.board.buttons)
    cycles += firmware_module._COST_ADC_SAMPLE
    cycles += firmware_module._COST_FILTER_PER_SAMPLE * config.smoothing_window
    if config.dual_sensor:
        cycles += firmware_module._COST_ADC_SAMPLE + firmware_module._COST_FUSION
    return cycles + firmware_module._COST_ISLAND_LOOKUP


class _Ledger:
    """Every ``execute`` charge, and the ones since the last tick began."""

    def __init__(self, monkeypatch) -> None:
        self.total = 0
        self.this_tick = 0
        self.ticks = 0
        begin, execute = PIC18F452.begin_tick, PIC18F452.execute

        def begin_tick(mcu, instructions=0):
            self.ticks += 1
            self.this_tick = 0
            begin(mcu, instructions)

        def counted(mcu, instructions):
            self.total += instructions
            self.this_tick += instructions
            execute(mcu, instructions)

        monkeypatch.setattr(PIC18F452, "begin_tick", begin_tick)
        monkeypatch.setattr(PIC18F452, "execute", counted)


@pytest.mark.parametrize(
    "config",
    [
        DeviceConfig(),
        DeviceConfig(dual_sensor=True, smoothing_window=5),
        DeviceConfig(long_menu_mode="sdaz", chunk_size=8),
    ],
    ids=["plain", "dual-sensor", "sdaz"],
)
def test_cycle_budget_matches_the_stage_sums(config, monkeypatch):
    ledger = _Ledger(monkeypatch)
    device = DistScroll(build_menu(LABELS), config=config, seed=3)
    for distance in (8.0, 14.0, 22.0, 11.0):
        device.hold_at(distance)
        device.run_for(0.6)
    device.click("select")
    device.run_for(0.3)
    mcu = device.board.mcu
    stage = _stage_cycles(device)
    period = config.firmware_period_s
    assert mcu.ticks == ledger.ticks > 100
    assert ledger.total > 0  # display lines and RF packets were charged
    assert mcu.total_instructions == mcu.ticks * stage + ledger.total
    assert mcu.tick_utilization(period) == (
        (stage + ledger.this_tick) / mcu.tick_budget(period)
    )


# ---------------------------------------------------------------------------
# button polls
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bouncing_press_fires_on_the_always_polled_tick(seed):
    """A debouncer polled every tick, right after the firmware's, agrees."""
    device = DistScroll(build_menu(LABELS[:10]), seed=seed)
    raw = device.board.raw_buttons["select"]
    assert raw._rng is not None  # the contact bounces
    reference_presses: list[float] = []
    reference = DebouncedButton(
        button=raw, on_press=lambda: reference_presses.append(device.now)
    )
    period = device.config.firmware_period_s
    PeriodicTask(device.sim, period, lambda: reference.poll(device.now),
                 phase=period)
    presses: list[float] = []
    device.on_event(
        lambda event: presses.append(event.time)
        if isinstance(event, ButtonEvent) and event.name == "select"
        else None
    )
    device.hold_at(15.0)
    device.run_for(0.3)
    for hold_s in (0.08, 0.03, 0.15):
        device.click("select", hold_s=hold_s)
        device.run_for(0.2)
        while device.depth > 0:
            device.click("back")
    assert len(presses) == 3
    assert presses == reference_presses
