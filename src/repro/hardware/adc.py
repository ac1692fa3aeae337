"""10-bit successive-approximation ADC of the PIC 18F452.

The Smart-Its base board digitizes the GP2D120's analog output with the
PIC's built-in 10-bit ADC.  Figure 4 of the paper plots the "measured
analog voltage at Smart-Its input port" — i.e. exactly what this model
produces, scaled back to volts.

Modeled effects: reference-voltage scaling, 10-bit quantization, integral
non-linearity (a gentle bow, < 1 LSB typical), sample-and-hold noise, and
conversion time (the PIC needs ~20 µs per conversion, which matters only
for the firmware's cycle budget accounting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.obs.recorder import active_recorder
from repro.signal.scalar import clamp

if TYPE_CHECKING:
    from repro.sim.streams import BlockStream

__all__ = ["ADCParams", "ADC", "AnalogSource"]

#: Type of a callable returning a voltage for a simulated time.
AnalogSource = Callable[[float], float]


@dataclass(frozen=True)
class ADCParams:
    """Converter parameters.

    Attributes
    ----------
    resolution_bits:
        Word size; the PIC 18F452 ADC is 10-bit.
    v_ref:
        Full-scale reference voltage.
    inl_lsb:
        Peak integral non-linearity in LSB (applied as a smooth bow).
    noise_lsb_rms:
        RMS input-referred noise in LSB.
    conversion_time_s:
        Time one conversion occupies the converter.
    """

    resolution_bits: int = 10
    v_ref: float = 5.0
    inl_lsb: float = 0.5
    noise_lsb_rms: float = 0.4
    conversion_time_s: float = 20e-6

    @property
    def max_code(self) -> int:
        """Largest output code (1023 for 10 bits)."""
        return (1 << self.resolution_bits) - 1

    @property
    def lsb_volts(self) -> float:
        """Voltage step of one code."""
        return self.v_ref / (self.max_code + 1)


@dataclass
class ADC:
    """A multi-channel ADC front end.

    Channels are registered with :meth:`attach`; the firmware then calls
    :meth:`sample` with the current simulated time and a channel number,
    mirroring how the C firmware selects an ADC channel and starts a
    conversion.

    Parameters
    ----------
    params:
        Converter electrical parameters.
    rng:
        Noise generator, or a ``standard_normal`` block server over a
        private one; ``None`` gives an ideal noiseless converter.
    fault_hook:
        Optional fault-injection hook ``(time_s, channel, code) -> code``
        consulted after quantization on every conversion (see
        :mod:`repro.faults`).  ``None`` means a healthy converter.

    Noise is one ``rng.standard_normal()`` call per conversion, and
    which stream that is stays the owner's decision.  The DistScroll
    board and the PDA add-on spawn a generator that only their ADC
    draws from, so they pass it as a
    :class:`~repro.sim.streams.BlockStream`, which serves the same
    values from pre-drawn blocks.  The Point n Move glove
    (:mod:`repro.baselines.pointnmove`) and the pressure pad
    (:mod:`repro.baselines.pressurepad`) pass the participant's shared
    generator, which also draws that participant's reaction times and
    endpoint noise between conversions.  That one stays scalar: a block
    would take values meant for those other draws and shift every later
    one, so every ARENA output would change.

    A conversion is scalar Python whose only possible numpy call is the
    draw, and every substitution is exact:
    :func:`~repro.signal.scalar.clamp` returns what ``np.clip`` returns,
    ``math.sin(math.pi * f)`` equals ``np.sin(np.pi * f)`` on [0, 1], and
    ``0.0 + s * rng.standard_normal()`` is the sum ``rng.normal(0.0, s)``
    computes from the same single draw.
    ``tests/test_closed_loop_draws.py`` pins all three.
    """

    params: ADCParams = field(default_factory=ADCParams)
    rng: Optional[np.random.Generator | BlockStream] = None
    fault_hook: Optional[Callable[[float, int, int], int]] = None

    def __post_init__(self) -> None:
        self._channels: dict[int, AnalogSource] = {}
        self.conversions = 0
        # ``params`` is frozen, so the conversion constants are read once
        # here rather than through its properties on every sample.
        params = self.params
        self._max_code = params.max_code
        self._n_codes = self._max_code + 1
        self._v_ref = params.v_ref
        self._inl_lsb = params.inl_lsb
        self._noise_lsb_rms = params.noise_lsb_rms
        recorder = active_recorder()
        self._obs_samples = (
            recorder.metrics.counter("adc.samples")
            if recorder is not None
            else None
        )

    def attach(self, channel: int, source: AnalogSource) -> None:
        """Wire an analog source (a ``time -> volts`` callable) to a channel."""
        if channel < 0:
            raise ValueError(f"channel must be >= 0, got {channel}")
        self._channels[channel] = source

    def detach(self, channel: int) -> None:
        """Remove a channel wiring (no-op if absent)."""
        self._channels.pop(channel, None)

    @property
    def channels(self) -> list[int]:
        """Sorted list of wired channel numbers."""
        return sorted(self._channels)

    def sample(self, time_s: float, channel: int) -> int:
        """Convert the channel's voltage at ``time_s`` to a raw code.

        Raises
        ------
        KeyError
            If nothing is attached to ``channel``.
        """
        try:
            source = self._channels[channel]
        except KeyError:
            raise KeyError(
                f"no analog source attached to ADC channel {channel}"
            ) from None
        voltage = float(source(time_s))
        self.conversions += 1
        if self._obs_samples is not None:
            self._obs_samples.inc()
        code = self._quantize(voltage)
        if self.fault_hook is not None:
            code = int(
                clamp(self.fault_hook(time_s, channel, code), 0,
                      self._max_code)
            )
        return code

    def sample_volts(self, time_s: float, channel: int) -> float:
        """Sample a channel and convert the code back to volts.

        This is the "measured analog voltage at Smart-Its input port" of
        Figure 4 — it carries the quantization of the real measurement.
        """
        return self.sample(time_s, channel) * self.params.lsb_volts

    def code_for_voltage(self, voltage: float) -> int:
        """Ideal (noise-free) code for a voltage — used to place islands."""
        params = self.params
        code = voltage / params.v_ref * (params.max_code + 1)
        return int(clamp(round(code), 0, params.max_code))

    def codes_for_voltages(self, voltages: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`code_for_voltage` (bit-equal, batched).

        ``np.round`` rounds half to even exactly like builtin ``round``,
        so each element matches the scalar conversion; the island-map
        construction uses this to place every island in one pass.
        """
        params = self.params
        codes = (
            np.asarray(voltages, dtype=float)
            / params.v_ref
            * (params.max_code + 1)
        )
        return np.clip(np.round(codes), 0, params.max_code).astype(np.int64)

    def _quantize(self, voltage: float) -> int:
        fraction = voltage / self._v_ref
        code = fraction * self._n_codes
        # Integral non-linearity: a half-sine bow peaking mid-scale.  The
        # two clamps below are clamp() inlined, op for op.
        bow = fraction
        if bow < 0.0:
            bow = 0.0
        if bow > 1.0:
            bow = 1.0
        code += self._inl_lsb * math.sin(math.pi * bow)
        if self.rng is not None:
            code += 0.0 + self._noise_lsb_rms * self.rng.standard_normal()
        rounded = round(code)
        if rounded < 0:
            rounded = 0
        if rounded > self._max_code:
            rounded = self._max_code
        return rounded
