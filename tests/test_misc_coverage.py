"""Coverage for smaller corners: kernel helpers, display windowing,
firmware-level display behaviour, RF downlink protocol, SDAZ geometry."""

from __future__ import annotations

import pytest

from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.sim.kernel import Simulator


class TestKernelHelpers:
    def test_run_while_stops_on_condition(self):
        sim = Simulator(seed=0)
        counter = {"n": 0}

        def bump():
            counter["n"] += 1
            sim.schedule(0.1, bump)

        sim.schedule(0.1, bump)
        sim.run_while(lambda: counter["n"] < 5, max_time=100.0)
        assert counter["n"] == 5

    def test_run_while_respects_max_time(self):
        sim = Simulator(seed=0)

        def forever():
            sim.schedule(0.1, forever)

        sim.schedule(0.1, forever)
        sim.run_while(lambda: True, max_time=1.0)
        assert sim.now <= 1.1


class TestMenuWindowing:
    def test_window_pins_to_top(self):
        device = DistScroll(
            build_menu([f"I{i}" for i in range(10)]), seed=0, noisy=False
        )
        device.hold_at(27.0)  # entry 0
        device.run_for(0.4)
        lines = device.visible_menu()
        assert lines[0].startswith(">")
        assert "I0" in lines[0]

    def test_window_pins_to_bottom(self):
        device = DistScroll(
            build_menu([f"I{i}" for i in range(10)]), seed=0, noisy=False
        )
        device.hold_at(5.5)  # last entry
        device.run_for(0.5)
        lines = device.visible_menu()
        marked = [l for l in lines if l.startswith(">")]
        assert marked and "I9" in marked[0]
        # Window shows the tail of the list, not blanks.
        assert all(line for line in lines)

    def test_short_menu_pads_blank_lines(self):
        device = DistScroll(build_menu(["A", "B"]), seed=0, noisy=False)
        device.run_for(0.3)
        lines = device.visible_menu()
        assert lines[2] == "" and lines[4] == ""


class TestHostDownlink:
    def test_show_and_clear(self):
        device = DistScroll(build_menu(["A", "B"]), seed=0, noisy=False)
        device.board.rf_host.send(b"SHOW:hello there operator")
        device.run_for(0.3)
        status = " ".join(device.visible_status())
        assert "hello" in status
        device.board.rf_host.send(b"CLEAR")
        device.run_for(0.3)
        status = device.visible_status()
        assert status[0].startswith("raw")  # debug view restored

    def test_unknown_downlink_ignored(self):
        device = DistScroll(build_menu(["A", "B"]), seed=0, noisy=False)
        device.board.rf_host.send(b"REBOOT")  # not in the protocol
        device.run_for(0.3)
        assert not device.firmware.halted

    def test_long_instruction_wrapped(self):
        device = DistScroll(build_menu(["A", "B"]), seed=0, noisy=False)
        text = "Select the ringing tone volume entry in the settings menu"
        device.board.rf_host.send(b"SHOW:" + text.encode())
        device.run_for(0.3)
        lines = device.visible_status()
        assert all(len(line) <= 16 for line in lines)
        assert sum(1 for line in lines if line) >= 3

    def test_overwide_first_word_keeps_the_first_line(self):
        device = DistScroll(build_menu(["A", "B"]), seed=0, noisy=False)
        device.board.rf_host.send(b"SHOW:Supercalifragilistic is long")
        device.run_for(0.3)
        lines = device.visible_status()
        assert lines[0] == "Supercalifragili"  # the panel clips at 16
        assert lines[1] == "is long"


class TestSDAZGeometryEdges:
    def test_exact_granularity_level_is_flat(self):
        config = DeviceConfig(long_menu_mode="sdaz", chunk_size=10)
        device = DistScroll(
            build_menu([f"I{i}" for i in range(10)]), config=config, seed=0
        )
        assert not device.firmware._level_needs_zoom()

    def test_window_clamps_at_list_end(self):
        config = DeviceConfig(long_menu_mode="sdaz", chunk_size=10)
        device = DistScroll(
            build_menu([f"I{i}" for i in range(25)]), config=config, seed=0
        )
        firmware = device.firmware
        firmware._window_start = 23  # deliberately past the end
        start, end = firmware.window_range()
        assert end == 24
        assert end - start + 1 == 10

    def test_aim_outside_window_raises(self):
        config = DeviceConfig(long_menu_mode="sdaz", chunk_size=10)
        device = DistScroll(
            build_menu([f"I{i}" for i in range(25)]), config=config, seed=0
        )
        firmware = device.firmware
        device.hold_at(firmware.aim_distance_for_index(12))
        device.run_for(1.5)
        assert firmware.zoom == "fine"
        start, end = firmware.window_range()
        outside = end + 3 if end + 3 < 25 else start - 3
        with pytest.raises(ValueError):
            firmware.aim_distance_for_index(outside)


class TestDualSensorBoardWiring:
    def test_spare_channel_reads_offset_distance(self, sim):
        from repro.hardware.board import (
            ADC_CHANNEL_DISTANCE,
            ADC_CHANNEL_DISTANCE_SPARE,
            build_distscroll_board,
        )

        board = build_distscroll_board(sim, noisy=False, spare_offset_cm=3.0)
        board.set_pose(distance_cm=10.0)
        primary = board.adc.sample_volts(0.1, ADC_CHANNEL_DISTANCE)
        spare = board.adc.sample_volts(0.2, ADC_CHANNEL_DISTANCE_SPARE)
        # The spare sees 13 cm: a clearly lower voltage.
        assert spare < primary

    def test_no_spare_board(self, sim):
        from repro.hardware.board import build_distscroll_board

        board = build_distscroll_board(sim, fit_spare_sensor=False)
        assert board.spare_distance_sensor is None
        assert board.spare_offset_cm == 0.0
