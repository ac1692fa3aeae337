"""EXT-FUSION — the spare sensor slot, used (§4 extension).

The board carries two distance-sensor slots but "only one is used in our
experiments so far".  This experiment activates the second one, mounted
recessed by 3 cm, and measures what it buys:

* **range-estimate accuracy** — fused distance error over the whole
  0–28 cm axis, including the region below the primary's 4 cm peak where
  a single sensor is hopeless;
* **fold-back robustness** — the dive-and-park protocol of SENS-FOLD at
  several park depths, single-sensor latch vs dual-sensor fusion.

Expected shape: fusion tracks the true distance within a few mm down to
roughly ``4 cm − baseline`` (where *both* sensors fold), and preserves
the user's selection at every tested park depth, while the single-sensor
latch only survives shallow contact.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.experiments.harness import ExperimentResult
from repro.interaction.hand import Hand
from repro.sensors.fusion import DualRangeFinder
from repro.sensors.gp2d120 import GP2D120

__all__ = ["run_fusion"]


def run_fusion(
    seed: int = 0,
    baseline_cm: float = 3.0,
    park_depths: tuple[float, ...] = (3.2, 2.4, 1.6),
) -> ExperimentResult:
    """Accuracy sweep plus dive-and-park comparison."""
    result = ExperimentResult(
        experiment_id="EXT-FUSION",
        title=f"Dual-sensor fusion (recess {baseline_cm:.0f} cm)",
        columns=(
            "true_cm",
            "fused_cm",
            "abs_error_cm",
            "in_foldback",
        ),
    )

    rng = np.random.default_rng(seed)
    finder = DualRangeFinder(
        GP2D120.specimen(rng),
        GP2D120.specimen(rng),
        baseline_cm=baseline_cm,
    )
    floor = finder.usable_foldback_floor_cm()
    clock = 0.0
    errors_in_range = []
    for true in np.arange(1.5, 28.0, 1.5):
        clock += 0.5
        readings = []
        for _ in range(8):
            clock += 0.045
            readings.append(finder.fuse(clock, float(true)))
        valid = [r for r in readings if r.valid]
        if not valid:
            result.add_row(float(true), float("nan"), float("nan"), "-")
            continue
        fused = float(np.mean([r.distance_cm for r in valid]))
        error = abs(fused - float(true))
        # reprolint: allow REP007 (sums booleans — an exact integer majority count)
        in_fold = sum(r.in_foldback for r in valid) > len(valid) / 2
        result.add_row(float(true), fused, error, "yes" if in_fold else "no")
        if true > floor + 0.5:
            errors_in_range.append(error)
    result.note(
        f"mean |error| above the fusion floor ({floor:.1f} cm): "
        f"{float(np.mean(errors_in_range)) * 10:.1f} mm — the second sensor "
        "recovers true distance even below the primary's 4 cm peak"
    )

    # Dive-and-park comparison across depths.
    outcomes = []
    for depth in park_depths:
        single = _dive_and_park(seed, depth, dual=False)
        dual = _dive_and_park(seed, depth, dual=True)
        outcomes.append((depth, single, dual))
    summary = "; ".join(
        f"park {depth:.1f} cm: single={'kept' if s else 'LOST'} "
        f"dual={'kept' if d else 'LOST'}"
        for depth, s, d in outcomes
    )
    result.note("selection preserved through fold-back dives — " + summary)
    return result


def _dive_and_park(seed: int, depth_cm: float, dual: bool) -> bool:
    config = DeviceConfig(
        fast_scroll_enabled=False, chunk_size=0, dual_sensor=dual
    )
    device = DistScroll(
        build_menu([f"Item {i}" for i in range(30)]), config=config, seed=seed
    )
    hand = Hand(
        device.sim,
        device.board.set_distance,
        start_cm=15.0,
        rng=device.sim.spawn_rng(),
    )
    hand.move_to(5.2, 0.8)
    device.run_for(1.2)
    selected_at_crossing = device.highlighted_index
    hand.move_to(depth_cm, 0.35)
    device.run_for(2.0)
    return device.highlighted_index == selected_at_crossing
