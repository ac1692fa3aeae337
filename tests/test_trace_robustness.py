"""Tests for the tracer plus whole-system robustness properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.events import ZoomChanged, decode_event
from repro.core.menu import build_menu
from repro.sim.trace import Tracer


class TestTracer:
    def test_record_and_read(self):
        tracer = Tracer()
        tracer.record("ch", 0.1, 5)
        tracer.record("ch", 0.2, 7)
        channel = tracer.channel("ch")
        assert len(channel) == 2
        assert list(channel) == [(0.1, 5), (0.2, 7)]
        assert channel.last() == (0.2, 7)

    def test_numpy_views(self):
        tracer = Tracer()
        for i in range(5):
            tracer.record("ch", i * 0.1, float(i))
        channel = tracer.channel("ch")
        assert channel.times.shape == (5,)
        assert channel.values.dtype == float

    def test_heterogeneous_values_fall_back_to_object(self):
        tracer = Tracer()
        tracer.record("ch", 0.0, "text")
        tracer.record("ch", 0.1, 3)
        assert tracer.channel("ch").values.dtype == object

    def test_between(self):
        tracer = Tracer()
        for i in range(10):
            tracer.record("ch", float(i), i)
        window = tracer.channel("ch").between(2.0, 4.0)
        assert [v for _, v in window] == [2, 3, 4]

    def test_count_changes(self):
        tracer = Tracer()
        for value in (1, 1, 2, 2, 3, 1):
            tracer.record("ch", 0.0, value)
        assert tracer.channel("ch").count_changes() == 3

    def test_subscribers_fire_on_record(self):
        tracer = Tracer()
        got = []
        tracer.subscribe("ch", lambda t, v: got.append(v))
        tracer.record("ch", 0.0, 42)
        assert got == [42]
        assert list(tracer.channel("ch")) == [(0.0, 42)]

    def test_unsubscribe(self):
        tracer = Tracer()
        got = []
        cb = lambda t, v: got.append(v)  # noqa: E731
        tracer.subscribe("ch", cb)
        tracer.unsubscribe("ch", cb)
        tracer.record("ch", 0.0, 1)
        assert got == []

    def test_empty_channel_last_raises(self):
        tracer = Tracer()
        with pytest.raises(LookupError):
            tracer.channel("empty").last()

    def test_clear(self):
        tracer = Tracer()
        tracer.record("ch", 0.0, 1)
        tracer.clear()
        assert tracer.channels() == []


class TestZoomEventSerialization:
    def test_roundtrip(self):
        event = ZoomChanged(time=1.0, zoom="fine", window_start=5,
                            window_end=14)
        assert decode_event(event.to_bytes()) == event


class TestSystemRobustness:
    """Fuzz the physical inputs: nothing may crash, invariants must hold."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        distances=st.lists(
            st.floats(min_value=0.2, max_value=45.0, allow_nan=False),
            min_size=3,
            max_size=12,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_distance_walk_keeps_invariants(self, seed, distances):
        device = DistScroll(
            build_menu([f"I{i}" for i in range(12)]), seed=seed
        )
        for distance in distances:
            device.hold_at(distance)
            device.run_for(0.15)
            assert 0 <= device.highlighted_index < 12
            assert device.board.mcu.ram_free >= 0
        # Event stream timestamps are monotone.
        times = [t for t, _ in device.events()]
        assert times == sorted(times)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        buttons=st.lists(
            st.sampled_from(["select", "back", "aux"]), min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_button_mashing_never_crashes(self, seed, buttons):
        device = DistScroll(
            build_menu(
                {"A": ["a1", "a2"], "B": {"C": ["c1"]}, "D": [], "E": []}
            ),
            seed=seed,
        )
        device.run_for(0.2)
        for name in buttons:
            device.click(name)
            assert device.depth >= 0
            entries = device.firmware.cursor.entries
            assert 0 <= device.highlighted_index < len(entries)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_sdaz_random_walk(self, seed):
        config = DeviceConfig(long_menu_mode="sdaz", chunk_size=10)
        device = DistScroll(
            build_menu([f"I{i}" for i in range(40)]), config=config,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        for _ in range(8):
            device.hold_at(float(rng.uniform(2.0, 32.0)))
            device.run_for(0.3)
            assert 0 <= device.highlighted_index < 40
            assert device.firmware.zoom in ("coarse", "fine")


class TestSerializeFraming:
    """serialize() must be injective on trace contents (ISSUE satellite).

    The old encoding joined channel names and records with the same
    ``\\x1e`` separator, so e.g. one channel named ``"a\\x1eb"`` collided
    with two channels ``"a"`` and ``"b"``; length-prefixed framing keeps
    distinct contents distinct.
    """

    def test_separator_in_channel_name_is_unambiguous(self):
        one = Tracer()
        one.channel("a\x1eb")
        two = Tracer()
        two.channel("a")
        two.channel("b")
        assert one.serialize() != two.serialize()

    def test_separator_in_value_is_unambiguous(self):
        one = Tracer()
        one.record("ch", 0.0, "x\x1e0.5|y")
        two = Tracer()
        two.record("ch", 0.0, "x")
        two.record("ch", 0.5, "y")
        assert one.serialize() != two.serialize()

    def test_empty_channel_followed_by_another(self):
        one = Tracer()
        one.channel("")
        one.channel("a")
        two = Tracer()
        two.channel("a")
        assert one.serialize() != two.serialize()

    def test_same_contents_serialize_identically(self):
        def build():
            tracer = Tracer()
            tracer.record("b", 0.0, 1)
            tracer.record("a", 0.5, "x|y")
            tracer.record("b", 1.0, 2.5)
            return tracer

        assert build().serialize() == build().serialize()

    def test_record_split_across_channels_differs(self):
        one = Tracer()
        one.record("a", 0.0, 1)
        one.record("a", 1.0, 2)
        two = Tracer()
        two.record("a", 0.0, 1)
        two.record("b", 1.0, 2)
        assert one.serialize() != two.serialize()
