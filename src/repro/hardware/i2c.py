"""Simulated I2C bus connecting the Smart-Its to its displays.

The two Barton BT96040 chip-on-glass displays "are connected to the
Smart-Its via the I2C-bus" (Section 4.4).  The bus model captures the
properties that matter for interaction latency: a finite clock rate (so a
full display update takes milliseconds, not zero time), 7-bit addressing
with ACK/NAK, and occasional transaction errors that the firmware must
retry.

The bus is synchronous from the caller's perspective — a transaction
returns its result immediately — but reports how long it occupied the bus
so the firmware can account for the time in its loop budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Protocol

import numpy as np

from repro.obs.recorder import Recorder, active_recorder

if TYPE_CHECKING:
    from repro.sim.streams import BlockStream

__all__ = ["I2CDevice", "I2CBus", "I2CError", "TransferResult"]


class I2CError(RuntimeError):
    """A failed bus transaction (NAK after retries, bus stuck, ...)."""


class I2CDevice(Protocol):
    """Protocol every bus peripheral implements."""

    def i2c_write(self, payload: bytes) -> None:
        """Accept a write transaction payload."""


class TransferResult(NamedTuple):
    """Outcome of one bus write.

    A named tuple: the firmware writes a display line on every render,
    and a tuple is the cheapest record to build per write.

    Attributes
    ----------
    ok:
        Whether the transfer eventually succeeded.
    duration_s:
        Bus time consumed, including retries.
    retries:
        Number of retries performed.
    """

    ok: bool
    duration_s: float
    retries: int


class I2CBus:
    """A single-master I2C bus.

    Parameters
    ----------
    clock_hz:
        SCL frequency; standard mode is 100 kHz, which with 9 bits per
        byte gives ~90 µs per transferred byte.
    error_rate:
        Per-transaction probability of a transient failure (electrical
        noise, clock stretching timeout).  Failures are retried up to
        ``max_retries`` times, as the C firmware does.
    rng:
        Random generator for error injection, or a ``random`` block
        server over a private one; ``None`` disables errors.
    """

    def __init__(
        self,
        clock_hz: float = 100_000.0,
        error_rate: float = 0.0,
        rng: Optional[np.random.Generator | BlockStream] = None,
        max_retries: int = 3,
    ) -> None:
        if clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {clock_hz}")
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0,1), got {error_rate}")
        self.clock_hz = float(clock_hz)
        self.error_rate = float(error_rate)
        self.max_retries = int(max_retries)
        self._rng = rng
        self._devices: dict[int, I2CDevice] = {}
        self.bytes_transferred = 0
        self.transactions = 0
        #: Optional fault-injection hook ``() -> bool``; ``True`` fails the
        #: current transaction attempt (see :mod:`repro.faults`).
        self.fault_hook: Optional[Callable[[], bool]] = None
        self.injected_errors = 0
        self._obs: Optional[Recorder] = active_recorder()

    def _obs_complete(self, n_bytes: int, duration: float, retries: int) -> None:
        """Metric bookkeeping for one successful transaction."""
        obs = self._obs
        assert obs is not None
        obs.counter("i2c.transactions")
        obs.counter("i2c.bytes", n_bytes)
        if retries:
            obs.counter("i2c.retries", retries)
        obs.observe("i2c.transaction.duration_s", duration, low=1e-5, high=1.0)

    def attach(self, address: int, device: I2CDevice) -> None:
        """Put a peripheral on the bus at a 7-bit address."""
        if not 0 <= address <= 0x7F:
            raise ValueError(f"I2C address must be 7-bit, got {address:#x}")
        if address in self._devices:
            raise ValueError(f"address {address:#x} already in use")
        self._devices[address] = device

    def _byte_time(self) -> float:
        # 8 data bits + ACK per byte, plus start/stop overhead folded in.
        return 9.0 / self.clock_hz

    def _transaction_fails(self) -> bool:
        if self.fault_hook is not None and self.fault_hook():
            self.injected_errors += 1
            return True
        if self._rng is None or self.error_rate <= 0.0:
            return False
        return bool(self._rng.random() < self.error_rate)

    def write(self, address: int, payload: bytes) -> TransferResult:
        """Master write: address byte + payload to a peripheral.

        Raises
        ------
        I2CError
            If no device ACKs the address, or retries are exhausted.
        """
        device = self._require(address)
        n_bytes = 1 + len(payload)
        retries = 0
        while True:
            duration = (retries + 1) * n_bytes * self._byte_time()
            if not self._transaction_fails():
                device.i2c_write(bytes(payload))
                self.bytes_transferred += n_bytes
                self.transactions += 1
                if self._obs is not None:
                    self._obs_complete(n_bytes, duration, retries)
                return TransferResult(True, duration, retries)
            retries += 1
            if retries > self.max_retries:
                if self._obs is not None:
                    self._obs.counter("i2c.failures")
                raise I2CError(
                    f"write to {address:#x} failed after {self.max_retries} retries"
                )

    def _require(self, address: int) -> I2CDevice:
        try:
            return self._devices[address]
        except KeyError:
            raise I2CError(f"no device ACKs address {address:#x}")
