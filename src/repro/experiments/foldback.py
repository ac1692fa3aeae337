"""SENS-FOLD — the <4 cm fold-back: ambiguity, mitigation, exploit.

Section 4.2 describes three behaviours of the region closer than ~4 cm:

* **ambiguity** — "it therefore cannot be detected if the device is moved
  away (> 4cm) or towards the user (< 4 cm)";
* **tolerability** — users avoid it because a display that close is
  unreadable, and "initial tests show that users are aware of this sensor
  characteristic and learn how to avoid this behavior";
* **exploit** — "it is also possible — because of the much faster
  declining sensor values between 0 and 4 cms — that this sensor
  characteristic is exploited by advanced users for faster scrolling".

The experiment (a) quantifies the ambiguity by finding, for each
fold-back distance, the in-range distance producing the same voltage;
(b) drives the firmware through a fold-back crossing and counts how many
spurious selections the plausibility gate lets through; (c) measures the
fast-scroll gesture's achieved entries/second against normal reaching.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.experiments.harness import ExperimentResult
from repro.interaction.hand import Hand
from repro.sensors.gp2d120 import GP2D120

__all__ = ["run_foldback"]


def run_foldback(seed: int = 0, n_entries: int = 10) -> ExperimentResult:
    """Characterize the fold-back region end to end."""
    result = ExperimentResult(
        experiment_id="SENS-FOLD",
        title="Fold-back region: alias distances, gating, fast-scroll",
        columns=("foldback_cm", "alias_cm", "voltage_V"),
    )

    # (a) the ambiguity table: each distance below the peak aliases to one
    # beyond it.  One vectorized pass over the fold-back grid.
    sensor = GP2D120(rng=None)
    foldback_grid = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    voltages = sensor.ideal_voltage_array(foldback_grid)
    for d, voltage in zip(foldback_grid, voltages):
        try:
            alias = sensor.distance_for_voltage(float(voltage))
        except ValueError:
            alias = float("nan")
        result.add_row(float(d), float(alias), float(voltage))
    result.note(
        "every fold-back distance aliases to an in-range distance — the "
        "sensor alone cannot distinguish them (§4.2)"
    )

    # (b) park the device in the shallow fold-back (2.4 cm aliases to
    # ~6.1 cm, i.e. into *other* islands of a dense menu): does the
    # firmware keep the selection it had when the hand crossed the peak?
    held_latched, spurious = _dive_and_park(seed, n_entries=40, gate=True)
    held_ungated, spurious_ungated = _dive_and_park(
        seed, n_entries=40, gate=False
    )
    result.note(
        f"dive to 2.4 cm (40-entry menu): selection preserved="
        f"{held_latched} with the fold-back latch ({spurious} changes "
        f"while parked) vs preserved={held_ungated} without "
        f"({spurious_ungated} changes) — the latch absorbs shallow "
        "fold-back contact; deep dives stay ambiguous (tolerated, §4.2)"
    )

    # (c) fast-scroll throughput.
    fast_rate = _measure_fast_scroll_rate(seed, n_entries=40)
    result.note(
        f"fast-scroll gesture sustains {fast_rate:.1f} entries/s "
        "(advanced-user exploit of the steep <4 cm slope)"
    )
    return result


def _dive_and_park(
    seed: int, n_entries: int, gate: bool
) -> tuple[bool, int]:
    """Dive into the fold-back and park; report (preserved, changes).

    ``preserved`` — whether the entry highlighted before the dive is still
    highlighted while parked at 2.6 cm (whose alias lies inside an
    island); ``changes`` — highlight changes while parked.
    """
    labels = [f"Item {i}" for i in range(n_entries)]
    config = DeviceConfig(fast_scroll_enabled=False, chunk_size=0)
    device = DistScroll(build_menu(labels), config=config, seed=seed)
    if not gate:
        # Disable the fold-back latch and the plausibility gate entirely.
        device.firmware._fast_threshold_code = 10**9
        device.firmware._max_plausible_delta = 10**9
    hand = Hand(
        device.sim,
        device.board.set_distance,
        start_cm=15.0,
        rng=device.sim.spawn_rng(),
    )
    # Approach the near end of the range first, so the crossing-time
    # selection is well defined, then dive past the peak.
    hand.move_to(5.2, 0.8)
    device.run_for(1.2)
    selected_at_crossing = device.highlighted_index
    hand.move_to(2.4, 0.3)  # alias ≈ 6.1 cm: other islands of a dense menu
    device.run_for(0.5)
    changes_before_park = _highlight_changes(device)
    device.run_for(1.5)
    changes_while_parked = _highlight_changes(device) - changes_before_park
    preserved = device.highlighted_index == selected_at_crossing
    return preserved, changes_while_parked


def _highlight_changes(device: DistScroll) -> int:
    return sum(1 for _, e in device.events() if e.kind == "HighlightChanged")


def _measure_fast_scroll_rate(seed: int, n_entries: int) -> float:
    """Hold the device in the fold-back region; measure scroll speed."""
    labels = [f"Item {i}" for i in range(n_entries)]
    config = DeviceConfig(chunk_size=0, fast_scroll_enabled=True)
    device = DistScroll(build_menu(labels), config=config, seed=seed)
    device.hold_at(20.0)
    device.run_for(0.5)
    start_events = len(device.events())
    # The gesture: hover at the voltage peak (~4 cm), where output exceeds
    # anything the usable range produces.
    device.hold_at(3.9)
    duration = 2.0
    device.run_for(duration)
    fast_steps = sum(
        1 for _, e in device.events()[start_events:] if e.kind == "FastScroll"
    )
    return fast_steps / duration
