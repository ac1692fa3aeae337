"""9-volt block battery model powering the prototype.

"The device is powered by a 9 Volt block battery" (Section 4).  The model
tracks charge draw from the board's consumers and reproduces the alkaline
discharge curve: terminal voltage sags with depth of discharge and under
load, and the board browns out when the regulator input falls below its
dropout threshold.

This matters to the reproduction in two ways: the case is openable
specifically "to allow ... battery changes", and long user-study sessions
must not silently run the simulated battery flat.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["BatteryParams", "Battery"]


@dataclass(frozen=True)
class BatteryParams:
    """Electrical parameters of a 9 V alkaline block.

    Attributes
    ----------
    capacity_mah:
        Nominal capacity (≈550 mAh for alkaline 9 V).
    nominal_voltage:
        Fresh open-circuit voltage.
    cutoff_voltage:
        Below this the 5 V regulator drops out and the board browns out.
    internal_resistance_ohm:
        Causes load-dependent sag.
    """

    capacity_mah: float = 550.0
    nominal_voltage: float = 9.4
    cutoff_voltage: float = 6.0
    internal_resistance_ohm: float = 1.7


class Battery:
    """State-of-charge tracking battery.

    Consumers call :meth:`draw` with their current and a duration;
    :meth:`terminal_voltage` reports the sagged voltage under the present
    load.  The open-circuit curve is a piecewise-linear fit of the alkaline
    discharge profile.
    """

    _SOC_POINTS = np.array([0.0, 0.05, 0.2, 0.5, 0.8, 1.0])
    _OCV_POINTS = np.array([5.4, 6.3, 7.4, 8.1, 8.9, 9.4])

    def __init__(self, params: BatteryParams | None = None) -> None:
        self.params = params or BatteryParams()
        self._charge_mah = self.params.capacity_mah
        self._load_ma = 0.0
        self.total_drawn_mah = 0.0
        #: Optional fault hook ``() -> volts`` of *extra* terminal sag (a
        #: failing cell or corroded connector); see :mod:`repro.faults`.
        self.fault_hook: Optional[Callable[[], float]] = None
        self._safe_charge_mah, self._safe_load_ma = self._no_brownout_region()

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction of capacity in [0, 1]."""
        return max(self._charge_mah, 0.0) / self.params.capacity_mah

    @property
    def load_ma(self) -> float:
        """Most recent load current in mA."""
        return self._load_ma

    #: Scalar pure-Python mirror of the curve for the hot path below.
    _SOC_TUPLE = tuple(float(x) for x in _SOC_POINTS)
    _OCV_TUPLE = tuple(float(y) for y in _OCV_POINTS)

    def open_circuit_voltage(self) -> float:
        """No-load terminal voltage at the current state of charge.

        Bit-identical to ``np.interp(soc, _SOC_POINTS, _OCV_POINTS)``
        (same segment selection and ``slope * (x - x0) + y0`` op order)
        without the scalar-ufunc dispatch overhead — this runs once per
        firmware tick via the brownout check and again per observed tick
        for the battery gauge.
        """
        soc = self.state_of_charge
        xp, yp = self._SOC_TUPLE, self._OCV_TUPLE
        if soc <= xp[0]:
            return yp[0]
        if soc >= xp[-1]:
            return yp[-1]
        j = bisect.bisect_right(xp, soc) - 1
        x0, x1 = xp[j], xp[j + 1]
        y0, y1 = yp[j], yp[j + 1]
        return (y1 - y0) / (x1 - x0) * (soc - x0) + y0

    def terminal_voltage(self) -> float:
        """Voltage at the terminals under the present load."""
        sag = self._load_ma / 1000.0 * self.params.internal_resistance_ohm
        if self.fault_hook is not None:
            sag += max(self.fault_hook(), 0.0)
        return max(self.open_circuit_voltage() - sag, 0.0)

    @property
    def browned_out(self) -> bool:
        """Whether the regulator has dropped out.

        Exactly ``terminal_voltage() < cutoff_voltage``.  Inside the
        region :meth:`_no_brownout_region` proves safe the answer is
        ``False`` without evaluating the curve.
        """
        if (
            self.fault_hook is None
            and self._charge_mah >= self._safe_charge_mah
            and self._load_ma <= self._safe_load_ma
        ):
            return False
        return self.terminal_voltage() < self.params.cutoff_voltage

    def _no_brownout_region(self) -> tuple[float, float]:
        """``(charge floor mAh, load ceiling mA)`` where no brownout is possible.

        The floor sits at the lowest curve knot whose voltage ``v``
        exceeds the cutoff.  At or above it :meth:`open_circuit_voltage`
        is at least ``v`` in floating point: the state of charge is at
        least the knot's (division rounds monotonically), and since the
        curve rises, every segment from there adds a non-negative
        ``slope * (soc - x0)`` to a knot voltage of at least ``v``.  The
        ceiling starts at the headroom ``(v - cutoff) / R`` and steps down
        an ulp at a time until ``v - sag`` rounds to at least the cutoff;
        sag and subtraction round monotonically too, so any load at or
        below it keeps :meth:`terminal_voltage` off the cutoff.  With no
        knot above the cutoff, or a non-positive capacity or resistance,
        the region is empty.
        """
        cutoff = self.params.cutoff_voltage
        capacity = self.params.capacity_mah
        resistance = self.params.internal_resistance_ohm
        if capacity <= 0.0 or resistance <= 0.0:
            return math.inf, -math.inf
        for soc, volts in zip(self._SOC_TUPLE, self._OCV_TUPLE):
            if volts > cutoff:
                break
        else:
            return math.inf, -math.inf
        charge = soc * capacity
        while charge / capacity < soc:
            charge = math.nextafter(charge, math.inf)
        load = (volts - cutoff) / resistance * 1000.0
        while load > 0.0 and volts - load / 1000.0 * resistance < cutoff:
            load = math.nextafter(load, -math.inf)
        return charge, load

    def draw(self, current_ma: float, duration_s: float) -> None:
        """Consume charge: ``current_ma`` for ``duration_s`` seconds."""
        if current_ma < 0 or duration_s < 0:
            raise ValueError("current and duration must be non-negative")
        self._load_ma = float(current_ma)
        used = current_ma * duration_s / 3600.0
        self._charge_mah -= used
        self.total_drawn_mah += used

    def replace(self) -> None:
        """Swap in a fresh battery (the case opens for exactly this)."""
        self._charge_mah = self.params.capacity_mah
        self._load_ma = 0.0
