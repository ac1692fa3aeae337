"""REP009 fixture: a dual-path pair with its vector half missing.

The parity registry pins ``GP2D120.ideal_voltage`` ↔
``GP2D120.ideal_voltage_array`` in ``sensors/gp2d120.py``; this tree
defines only the scalar half, so REP009 must report exactly one
missing-path finding.
"""

__all__ = ["GP2D120"]


class GP2D120:
    """Sensor stub (the vectorized transfer curve has gone missing)."""

    def ideal_voltage(self, distance_cm: float) -> float:
        return 12.0 / (distance_cm + 0.4)
