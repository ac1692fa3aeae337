#!/usr/bin/env python
"""Regenerate Figures 4 and 5 as ASCII plots from the sensor model.

Sweeps a simulated GP2D120 specimen over its 4–30 cm range through the
Smart-Its ADC, fits the idealized curve of Figure 4, and renders both
the linear-axis and the log-axis (Figure 5) views in the terminal.

Run:  python examples/sensor_calibration.py
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.fig4 import run_fig4


def ascii_plot(xs, ys, fit_ys, width=60, height=16, logx=False, logy=False):
    """Tiny scatter+line plotter: '*' measured, '.' fitted curve."""
    tx = [math.log10(x) if logx else x for x in xs]
    ty = [math.log10(max(y, 1e-9)) if logy else y for y in ys]
    tf = [math.log10(max(y, 1e-9)) if logy else y for y in fit_ys]
    x_lo, x_hi = min(tx), max(tx)
    y_lo, y_hi = min(ty + tf), max(ty + tf)
    grid = [[" "] * width for _ in range(height)]

    def place(x, y, char):
        col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
        row = int((y_hi - y) / (y_hi - y_lo) * (height - 1))
        if grid[row][col] == " " or char == "*":
            grid[row][col] = char

    for x, y in zip(tx, tf):
        place(x, y, ".")
    for x, y in zip(tx, ty):
        place(x, y, "*")
    lines = ["    +" + "-" * width + "+"]
    for i, row in enumerate(grid):
        y_val = y_hi - i / (height - 1) * (y_hi - y_lo)
        lines.append(f"{y_val:4.1f}|" + "".join(row) + "|")
    lines.append("    +" + "-" * width + "+")
    lines.append(f"     {x_lo:<8.2f}{'':^{width - 16}}{x_hi:>8.2f}")
    return "\n".join(lines)


def main() -> None:
    result, calibration = run_fig4(seed=0, readings_per_point=16)
    xs = list(calibration.distances)
    ys = list(calibration.voltages)
    fit = calibration.hyperbola
    fit_ys = [float(fit.voltage(x)) for x in xs]

    print("Figure 4 — measured voltage (*) and idealized fit (.)")
    print("x: distance [cm], y: analog voltage at the Smart-Its port [V]\n")
    print(ascii_plot(xs, ys, fit_ys))
    print(f"\n  fit: V = {fit.a:.2f}/(d + {fit.b:.2f}) + {fit.c:.3f}"
          f"   R^2 = {fit.r2:.5f}")

    power = calibration.power_law
    power_ys = [float(power.voltage(x)) for x in xs]
    print("\nFigure 5 — the same data on logarithmic axes")
    print("x: log10 distance, y: log10 voltage\n")
    print(ascii_plot(xs, ys, power_ys, logx=True, logy=True))
    print(f"\n  power law: V = {power.k:.2f} * d^{power.p:.3f}"
          f"   log-space R^2 = {power.r2_log:.5f}")
    print("\n'The measured values nearly perfectly fit the curve.' (§4.2)")


if __name__ == "__main__":
    main()
