"""Tests for the I2C bus and the BT96040 display protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.display import BT96040, TEXT_COLUMNS, TEXT_LINES
from repro.hardware.i2c import I2CBus, I2CError


class _EchoDevice:
    def __init__(self):
        self.written = []

    def i2c_write(self, payload: bytes) -> None:
        self.written.append(payload)


class TestI2CBus:
    def test_write_reaches_device(self):
        bus = I2CBus()
        device = _EchoDevice()
        bus.attach(0x20, device)
        result = bus.write(0x20, b"hello")
        assert result.ok
        assert device.written == [b"hello"]

    def test_missing_device_nak(self):
        bus = I2CBus()
        with pytest.raises(I2CError):
            bus.write(0x55, b"x")

    def test_duplicate_address_rejected(self):
        bus = I2CBus()
        bus.attach(0x20, _EchoDevice())
        with pytest.raises(ValueError):
            bus.attach(0x20, _EchoDevice())

    def test_invalid_address_rejected(self):
        bus = I2CBus()
        with pytest.raises(ValueError):
            bus.attach(0x80, _EchoDevice())

    def test_transfer_duration_scales_with_size(self):
        bus = I2CBus(clock_hz=100_000)
        bus.attach(0x20, _EchoDevice())
        short = bus.write(0x20, b"a").duration_s
        long = bus.write(0x20, b"a" * 50).duration_s
        assert long > short * 10

    def test_errors_retried_and_counted(self):
        bus = I2CBus(error_rate=0.5, rng=np.random.default_rng(3), max_retries=50)
        bus.attach(0x20, _EchoDevice())
        result = bus.write(0x20, b"abc")
        assert result.ok
        # With 50% error rate some retries almost surely happened.
        results = [bus.write(0x20, b"abc") for _ in range(20)]
        assert any(r.retries > 0 for r in results)

    def test_exhausted_retries_raise(self):
        bus = I2CBus(error_rate=0.999, rng=np.random.default_rng(0), max_retries=2)
        bus.attach(0x20, _EchoDevice())
        with pytest.raises(I2CError):
            for _ in range(50):
                bus.write(0x20, b"x")

    def test_statistics(self):
        bus = I2CBus()
        bus.attach(0x20, _EchoDevice())
        bus.write(0x20, b"abc")
        bus.write(0x20, b"de")
        assert bus.transactions == 2
        assert bus.bytes_transferred == (1 + 3) + (1 + 2)


class TestDisplay:
    def test_set_line_truncates_to_width(self):
        display = BT96040("top")
        display.set_line(0, "x" * 50)
        assert display.lines[0] == "x" * TEXT_COLUMNS

    def test_line_index_bounds(self):
        display = BT96040("top")
        with pytest.raises(IndexError):
            display.set_line(TEXT_LINES, "oops")

    def test_clear(self):
        display = BT96040("top")
        display.set_line(2, "hello")
        display.framebuffer[5, 5] = True
        display.clear()
        assert display.lines == [""] * TEXT_LINES
        assert not display.framebuffer.any()

    def test_i2c_line_protocol(self):
        display = BT96040("top")
        display.i2c_write(BT96040.encode_line(1, "Menu"))
        assert display.lines[1] == "Menu"

    def test_i2c_clear_protocol(self):
        display = BT96040("top")
        display.set_line(0, "x")
        display.i2c_write(BT96040.encode_clear())
        assert display.lines[0] == ""

    def test_i2c_contrast_protocol(self):
        display = BT96040("top")
        display.i2c_write(BT96040.encode_contrast(0.8))
        assert display.contrast == pytest.approx(0.8, abs=0.01)

    def test_unknown_command_rejected(self):
        display = BT96040("top")
        with pytest.raises(ValueError):
            display.i2c_write(bytes([0x7F]))

    def test_readability_window(self):
        display = BT96040("top")
        display.set_line(0, "hello")
        display.set_contrast(0.05)
        assert display.visible_text() == [""] * TEXT_LINES
        display.set_contrast(0.5)
        assert display.visible_text()[0] == "hello"
        display.set_contrast(1.0)
        assert display.visible_text() == [""] * TEXT_LINES

    def test_pixel_blit_bounds(self):
        display = BT96040("top")
        with pytest.raises(IndexError):
            display.set_pixels(38, 90, np.ones((5, 10), dtype=bool))

    def test_pixel_blit_roundtrip_via_i2c(self):
        display = BT96040("top")
        bits = np.array([[1, 0], [0, 1]], dtype=bool)
        packed = np.packbits(bits.flatten().astype(np.uint8))
        payload = bytes([0x03, 4, 4, 2, 2]) + packed.tobytes()
        display.i2c_write(payload)
        assert display.framebuffer[4, 4]
        assert display.framebuffer[5, 5]
        assert not display.framebuffer[4, 5]
