"""EXT-PDA — the planned PDA add-on, measured (§7).

"To further investigate user acceptance and possible applications, we
also intend to construct a minimized version of the DistScroll as add-on
for a PDA."  The experiment compares the handheld prototype against the
PDA build (:mod:`repro.hardware.pda`) on a 20-entry menu:

* **selection time** — the same closed-loop motor model drives both; the
  interaction (islands, gaps, confirm debounce) is identical, so times
  should match closely — the add-on *preserves* the technique;
* **display real estate** — the PDA shows 11 rows vs the prototype's 5;
  for a target at an unknown position, the chance it is already visible
  when the level opens, and the expected scan penalty otherwise, both
  favour the PDA.  (Scan model: reading-rate-limited sweep at 8 rows/s
  through the not-yet-visible part of the list.)
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.experiments.harness import ExperimentResult
from repro.hardware.display import TEXT_LINES
from repro.hardware.pda import PDAListWidget, build_pda_device
from repro.interaction.hand import Hand
from repro.interaction.tasks import random_targets
from repro.interaction.user import SimulatedUser

__all__ = ["run_pda"]

#: Visual reading rate while scanning an unfamiliar list (rows/second).
_READING_RATE_ROWS_S = 8.0


def run_pda(
    seed: int = 0,
    n_entries: int = 20,
    n_trials: int = 8,
    n_users: int = 3,
) -> ExperimentResult:
    """Handheld prototype vs PDA add-on."""
    result = ExperimentResult(
        experiment_id="EXT-PDA",
        title=f"Handheld prototype vs PDA add-on ({n_entries}-entry menu)",
        columns=(
            "variant",
            "visible_rows",
            "mean_select_s",
            "success_rate",
            "p_target_visible",
            "mean_scan_penalty_s",
        ),
    )
    master = np.random.default_rng(seed)

    handheld_times, handheld_ok = _run_handheld(
        master, n_entries, n_trials, n_users
    )
    pda_times, pda_ok = _run_pda_variant(master, n_entries, n_trials, n_users)

    for variant, rows, times, ok in (
        ("handheld", TEXT_LINES, handheld_times, handheld_ok),
        ("pda-addon", PDAListWidget.VISIBLE_ROWS, pda_times, pda_ok),
    ):
        p_visible = min(rows / n_entries, 1.0)
        hidden = max(n_entries - rows, 0)
        scan_penalty = (1.0 - p_visible) * (hidden / 2.0) / _READING_RATE_ROWS_S
        result.add_row(
            variant,
            rows,
            float(np.mean(times)),
            ok,
            p_visible,
            scan_penalty,
        )
    result.note(_pda_note(result))
    return result


def _pda_note(result: ExperimentResult) -> str:
    """Which variant selects faster, and the visibility gain, as measured."""
    rows = {row[0]: row for row in result.rows}
    _, _, handheld_s, _, handheld_p, _ = rows["handheld"]
    _, pda_rows, pda_s, _, pda_p, _ = rows["pda-addon"]
    faster = "pda-addon" if pda_s < handheld_s else "handheld"
    return (
        f"the {faster} selects faster: {pda_s:.3g} s on the pda-addon vs "
        f"{handheld_s:.3g} s handheld; the PDA's {pda_rows}-row "
        f"screen shows an unknown target without scrolling with p = "
        f"{pda_p:.2g} vs {handheld_p:.2g} ({pda_p / handheld_p:.2g}x)"
    )


def _run_handheld(
    master: np.random.Generator, n_entries: int, n_trials: int, n_users: int
) -> tuple[list[float], float]:
    labels = [f"Item {i:02d}" for i in range(n_entries)]
    config = DeviceConfig(chunk_size=0)
    times, successes, total = [], 0, 0
    for _ in range(n_users):
        user_seed = int(master.integers(2**31))
        rng = np.random.default_rng(user_seed)
        device = DistScroll(build_menu(labels), config=config, seed=user_seed)
        user = SimulatedUser(device=device, rng=rng)
        user.practice_trials = 30
        device.run_for(0.5)
        for target in random_targets(n_entries, n_trials, rng, min_separation=2):
            trial = user.select_entry(target)
            times.append(trial.duration_s)
            successes += int(trial.success)
            total += 1
    return times, successes / total


def _run_pda_variant(
    master: np.random.Generator, n_entries: int, n_trials: int, n_users: int
) -> tuple[list[float], float]:
    """Closed-loop selection on the PDA build.

    A compact user loop (reach via the hand plant, verify on the widget,
    press the PDA select button) using the same motor constants.
    """
    labels = [f"Item {i:02d}" for i in range(n_entries)]
    times, successes, total = [], 0, 0
    for _ in range(n_users):
        user_seed = int(master.integers(2**31))
        rng = np.random.default_rng(user_seed)
        sim, addon, driver = build_pda_device(
            build_menu(labels), seed=user_seed
        )
        hand = Hand(
            sim, addon.set_distance, start_cm=20.0, rng=rng
        )
        sim.run_until(0.5)
        activated: list[str] = []
        driver.on_activate = activated.append
        driver.cursor.on_activate = lambda e: activated.append(e.label)
        for target in random_targets(n_entries, n_trials, rng, min_separation=2):
            start = sim.now
            aim = driver.aim_distance_for_index(target)
            success = False
            sim.run_until(sim.now + 0.26 * rng.lognormal(0.0, 0.15))
            for _attempt in range(10):
                distance = abs(hand.position(include_tremor=False) - aim)
                mt = max(0.12, 0.10 + 0.145 * np.log2(distance / 1.0 + 1.0))
                tolerance = driver.island_map.distance_tolerance(
                    0, addon.sensor
                )
                endpoint = aim + rng.normal(0.0, 0.27 * max(tolerance, 0.1))
                hand.move_to(endpoint, mt)
                sim.run_until(sim.now + mt + 0.26)
                if driver.highlighted_index == target:
                    sim.run_until(sim.now + 0.22)
                    if driver.highlighted_index == target:
                        sim.run_until(sim.now + 0.16)
                        driver.press_select()
                        success = activated[-1:] == [labels[target]]
                        break
            times.append(sim.now - start)
            successes += int(success)
            total += 1
    return times, successes / total
