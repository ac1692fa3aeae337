"""Barton BT96040 chip-on-glass display model.

The DistScroll carries two of these 96x40-pixel displays on the I2C bus
(Section 4.4): "we include two displays with a resolution of 40x96 pixels
each (5 lines in text mode)".  The top display shows the menu, the bottom
one state/debug information; contrast is adjusted with a potentiometer.

The model implements:

* a monochrome framebuffer (96 columns x 40 rows);
* a 5-line x 16-column text mode with a built-in 5x7 font metric
  (glyph rendering is abstracted to per-cell characters — the *content*
  is what the simulated user perceives);
* an I2C register protocol (command byte + payload) so updates cost real
  bus time;
* a contrast input in [0, 1] driven by the potentiometer, with a
  readability predicate used by the simulated user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["DisplayGeometry", "BT96040", "TEXT_LINES", "TEXT_COLUMNS", "wrap_text"]

#: Text mode dimensions quoted in the paper ("5 lines in text mode").
TEXT_LINES = 5
TEXT_COLUMNS = 16

def wrap_text(text: str, max_lines: int) -> list[str]:
    """Word-wrap ``text`` into at most ``max_lines`` text-mode lines.

    Words fill a line up to :data:`TEXT_COLUMNS`; a word wider than that
    gets a line of its own, which the panel clips.  No line is empty.
    """
    lines: list[str] = []
    current = ""
    for word in text.split():
        if not current:
            current = word
        elif len(current) + 1 + len(word) <= TEXT_COLUMNS:
            current = f"{current} {word}"
        else:
            lines.append(current)
            if len(lines) == max_lines:
                return lines
            current = word
    if current:
        lines.append(current)
    return lines


#: I2C command bytes of the (simplified) BT96040 protocol.
_CMD_CLEAR = 0x01
_CMD_SET_LINE = 0x02
_CMD_SET_PIXELS = 0x03
_CMD_SET_CONTRAST = 0x04


@dataclass(frozen=True)
class DisplayGeometry:
    """Pixel geometry of the panel."""

    width_px: int = 96
    height_px: int = 40

    @property
    def pixel_count(self) -> int:
        """Total number of pixels."""
        return self.width_px * self.height_px


class BT96040:
    """One chip-on-glass display attached to the I2C bus.

    The display keeps both a pixel framebuffer and the text-mode line
    contents; the simulated user reads the text lines, experiments can
    assert on either.

    Parameters
    ----------
    name:
        Label ("top"/"bottom") used in traces.
    geometry:
        Panel dimensions (defaults to the BT96040's 96x40).
    """

    def __init__(self, name: str, geometry: Optional[DisplayGeometry] = None) -> None:
        self.name = name
        self.geometry = geometry or DisplayGeometry()
        self.framebuffer = np.zeros(
            (self.geometry.height_px, self.geometry.width_px), dtype=bool
        )
        self.lines: list[str] = [""] * TEXT_LINES
        self.contrast = 0.5
        self.updates = 0
        #: Controller power-on resets suffered (fault injection); the
        #: firmware's display watchdog compares this against its last-seen
        #: value and re-renders after a reset.
        self.resets = 0
        #: Optional fault hook ``() -> bool``; ``True`` power-on-resets the
        #: controller and drops the in-flight command (see :mod:`repro.faults`).
        self.fault_hook: Optional[Callable[[], bool]] = None

    # ------------------------------------------------------------------
    # direct API (used by firmware through the bus helpers below)
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Blank the framebuffer and all text lines."""
        self.framebuffer[:] = False
        self.lines = [""] * TEXT_LINES
        self.updates += 1

    def set_line(self, index: int, text: str) -> None:
        """Write one text-mode line (truncated to the panel width)."""
        if not 0 <= index < TEXT_LINES:
            raise IndexError(f"line index {index} out of range 0..{TEXT_LINES - 1}")
        self.lines[index] = text[:TEXT_COLUMNS]
        self.updates += 1

    def set_contrast(self, value: float) -> None:
        """Set panel contrast in [0, 1]."""
        self.contrast = float(np.clip(value, 0.0, 1.0))

    def set_pixels(self, row: int, col: int, bits: np.ndarray) -> None:
        """Blit a boolean array into the framebuffer at (row, col)."""
        bits = np.asarray(bits, dtype=bool)
        h, w = bits.shape
        if row < 0 or col < 0 or row + h > self.geometry.height_px or (
            col + w > self.geometry.width_px
        ):
            raise IndexError(
                f"blit {h}x{w} at ({row},{col}) exceeds "
                f"{self.geometry.height_px}x{self.geometry.width_px} panel"
            )
        self.framebuffer[row : row + h, col : col + w] = bits
        self.updates += 1

    def readable(self, min_contrast: float = 0.2, max_contrast: float = 0.95) -> bool:
        """Whether a user can read the panel at the current contrast.

        Washed-out (too low) or inverted-black (too high) contrast makes
        the text illegible — this is what the potentiometer tuning in the
        prototype is for.
        """
        return min_contrast <= self.contrast <= max_contrast

    def visible_text(self) -> list[str]:
        """The text a user perceives: the lines if readable, else blanks."""
        if not self.readable():
            return [""] * TEXT_LINES
        return list(self.lines)

    # ------------------------------------------------------------------
    # I2C protocol
    # ------------------------------------------------------------------
    def power_on_reset(self) -> None:
        """Simulate a controller brown-out/reset: the panel blanks.

        Contrast survives (it is set by the external potentiometer divider)
        but framebuffer and text RAM are lost until the firmware re-renders.
        """
        self.framebuffer[:] = False
        self.lines = [""] * TEXT_LINES
        self.resets += 1
        self.updates += 1

    def i2c_write(self, payload: bytes) -> None:
        """Decode one bus write: ``[command, args...]``."""
        if self.fault_hook is not None and self.fault_hook():
            # The controller reset mid-transaction: state is lost and the
            # in-flight command never lands.
            self.power_on_reset()
            return
        if not payload:
            return
        command, args = payload[0], payload[1:]
        if command == _CMD_CLEAR:
            self.clear()
        elif command == _CMD_SET_LINE:
            if not args:
                raise ValueError("SET_LINE needs a line index")
            self.set_line(args[0], args[1:].decode("latin-1"))
        elif command == _CMD_SET_CONTRAST:
            if not args:
                raise ValueError("SET_CONTRAST needs a value byte")
            self.set_contrast(args[0] / 255.0)
        elif command == _CMD_SET_PIXELS:
            self._decode_pixel_blit(args)
        else:
            raise ValueError(f"unknown display command {command:#x}")

    def i2c_read(self, length: int) -> bytes:
        """Status read: [busy=0, contrast byte, updates lo, updates hi]."""
        status = bytes(
            [0, int(self.contrast * 255), self.updates & 0xFF, (self.updates >> 8) & 0xFF]
        )
        return status[:length].ljust(length, b"\x00")

    def _decode_pixel_blit(self, args: bytes) -> None:
        if len(args) < 4:
            raise ValueError("SET_PIXELS needs row, col, h, w header")
        row, col, h, w = args[0], args[1], args[2], args[3]
        bits_needed = h * w
        packed = args[4:]
        if len(packed) * 8 < bits_needed:
            raise ValueError(
                f"SET_PIXELS payload too short: {len(packed) * 8} bits "
                f"for {bits_needed}"
            )
        unpacked = np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8), count=bits_needed
        )
        self.set_pixels(row, col, unpacked.reshape(h, w).astype(bool))

    # ------------------------------------------------------------------
    # encoding helpers for the firmware side
    # ------------------------------------------------------------------
    @staticmethod
    def encode_clear() -> bytes:
        """Payload for a clear command."""
        return bytes([_CMD_CLEAR])

    @staticmethod
    def encode_line(index: int, text: str) -> bytes:
        """Payload writing one text line."""
        return bytes([_CMD_SET_LINE, index]) + text[:TEXT_COLUMNS].encode("latin-1")

    @staticmethod
    def encode_contrast(value: float) -> bytes:
        """Payload setting contrast in [0, 1]."""
        byte = int(np.clip(value, 0.0, 1.0) * 255)
        return bytes([_CMD_SET_CONTRAST, byte])
