"""Tests for the RF link and the full board assembly."""

from __future__ import annotations

import pytest

from repro.hardware.board import (
    ADC_CHANNEL_DISTANCE,
    ADC_CHANNEL_DISTANCE_SPARE,
    build_distscroll_board,
)
from repro.hardware.rf import RFEndpoint, RFLink
from repro.sim.kernel import Simulator


class TestRFLink:
    def _link(self, sim, loss=0.0):
        a = RFEndpoint("device")
        b = RFEndpoint("host")
        rng = sim.spawn_rng() if loss > 0 else None
        link = RFLink(sim, a, b, loss_rate=loss, rng=rng)
        return a, b, link

    def test_delivery(self, sim):
        a, b, _ = self._link(sim)
        a.send(b"hello")
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].payload == b"hello"
        assert b.received[0].source == "device"

    def test_latency_positive(self, sim):
        a, b, _ = self._link(sim)
        a.send(b"x")
        times = []
        b.on_receive(lambda p: times.append(sim.now))
        sim.run()
        assert times and times[0] > 0.0

    def test_bidirectional(self, sim):
        a, b, _ = self._link(sim)
        a.send(b"ping")
        b.send(b"pong")
        sim.run()
        assert a.received[0].payload == b"pong"
        assert b.received[0].payload == b"ping"

    def test_in_order_delivery(self, sim):
        a, b, _ = self._link(sim)
        for i in range(10):
            a.send(bytes([i]))
        sim.run()
        payloads = [p.payload[0] for p in b.received]
        assert payloads == sorted(payloads)

    def test_loss_rate(self, sim):
        a, b, link = self._link(sim, loss=0.5)
        for _ in range(400):
            a.send(b"x")
        sim.run()
        assert 100 < len(b.received) < 300
        assert link.delivery_ratio == pytest.approx(
            len(b.received) / 400, abs=0.01
        )

    def test_unattached_endpoint_send_fails(self):
        lone = RFEndpoint("lone")
        assert not lone.send(b"x")

    def test_callback_invoked(self, sim):
        a, b, _ = self._link(sim)
        got = []
        b.on_receive(lambda p: got.append(p.payload))
        a.send(b"evt")
        sim.run()
        assert got == [b"evt"]


class TestBoardAssembly:
    def test_inventory_matches_figure_3(self, sim):
        """Two displays, distance sensor (plus spare slot), three buttons,
        pot, battery, RF — the §4.1 inventory.  The fitted but unused
        accelerometer is not modelled, so only the distance channels are
        wired."""
        board = build_distscroll_board(sim)
        assert board.display_top.name == "top"
        assert board.display_bottom.name == "bottom"
        assert board.spare_distance_sensor is not None
        assert set(board.buttons) == {"select", "back", "aux"}
        assert board.battery.state_of_charge == 1.0
        assert board.adc.channels == [
            ADC_CHANNEL_DISTANCE,
            ADC_CHANNEL_DISTANCE_SPARE,
        ]

    def test_distance_channel_tracks_pose(self, sim):
        board = build_distscroll_board(sim, noisy=False)
        board.set_pose(distance_cm=6.0)
        near = board.adc.sample_volts(0.1, ADC_CHANNEL_DISTANCE)
        board.set_pose(distance_cm=25.0)
        far = board.adc.sample_volts(0.2, ADC_CHANNEL_DISTANCE)
        assert near > far

    def test_contrast_propagates(self, sim):
        board = build_distscroll_board(sim, noisy=False)
        board.potentiometer.set_position(0.8)
        board.apply_contrast()
        assert board.display_top.contrast == pytest.approx(0.8)
        assert board.display_bottom.contrast == pytest.approx(0.8)

    def test_noise_free_board_is_deterministic(self):
        readings = []
        for _ in range(2):
            sim = Simulator(seed=11)
            board = build_distscroll_board(sim, noisy=False)
            board.set_pose(distance_cm=13.0)
            readings.append(board.adc.sample(0.1, ADC_CHANNEL_DISTANCE))
        assert readings[0] == readings[1]

    def test_same_seed_same_noisy_board(self):
        readings = []
        for _ in range(2):
            sim = Simulator(seed=11)
            board = build_distscroll_board(sim, noisy=True)
            board.set_pose(distance_cm=13.0)
            readings.append(board.adc.sample(0.1, ADC_CHANNEL_DISTANCE))
        assert readings[0] == readings[1]

    def test_button_press_release_cycle(self, sim):
        board = build_distscroll_board(sim, noisy=False)
        board.press_button("select")
        assert board.raw_buttons["select"].closed
        board.release_button("select")
        assert not board.raw_buttons["select"].closed
