"""ABL-LAYOUT — button count, placement and handedness (§4.5/§6).

The prototype's three-button layout "provides a convenient right-handed
usage"; §6 reports the authors "are currently experimenting with the
number and position of the buttons", favouring either "a two button
design with the buttons slidable along the sides" or "one large button
that can easily be pressed independently of which hand is used".  §7
promises "a later user study will show which design will prove most
useable" — this experiment is that study.

Protocol: a mixed-handed population (≈10 % left-handed) runs the same
selection workload on all three candidate layouts; a handed layout
operated with the other hand slows and fumbles the select press.  Also
crossed with arctic mittens, where the large button's area pays off.
"""

from __future__ import annotations

import numpy as np

from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.experiments.harness import ExperimentResult
from repro.hardware.buttons import (
    ButtonLayout,
    RIGHT_HANDED_LAYOUT,
    SINGLE_LARGE_BUTTON_LAYOUT,
    TWO_BUTTON_SLIDABLE_LAYOUT,
)
from repro.interaction.gloves import GLOVES
from repro.interaction.tasks import random_targets
from repro.interaction.user import SimulatedUser

__all__ = ["run_layouts", "CANDIDATE_LAYOUTS"]

#: The three designs under consideration in §6.
CANDIDATE_LAYOUTS: tuple[ButtonLayout, ...] = (
    RIGHT_HANDED_LAYOUT,
    TWO_BUTTON_SLIDABLE_LAYOUT,
    SINGLE_LARGE_BUTTON_LAYOUT,
)


def run_layouts(
    seed: int = 0,
    n_users: int = 8,
    n_trials: int = 6,
    n_entries: int = 10,
    left_handed_fraction: float = 0.1,
    gloves: tuple[str, ...] = ("none", "arctic"),
) -> ExperimentResult:
    """Cross candidate layouts with handedness and gloves."""
    result = ExperimentResult(
        experiment_id="ABL-LAYOUT",
        title="Button layouts x handedness x gloves",
        columns=(
            "layout",
            "glove",
            "mean_trial_s",
            "button_misses_per_trial",
            "left_handed_penalty_s",
        ),
    )
    master = np.random.default_rng(seed)
    labels = [f"Item {i}" for i in range(n_entries)]

    for layout in CANDIDATE_LAYOUTS:
        for glove_key in gloves:
            right_times, left_times, misses = [], [], 0
            trials_run = 0
            for u in range(n_users):
                user_seed = int(master.integers(2**31))
                rng = np.random.default_rng(user_seed)
                left_handed = rng.random() < left_handed_fraction or (
                    u == n_users - 1  # guarantee at least one left-hander
                )
                device = DistScroll(
                    build_menu(labels), seed=user_seed, layout=layout
                )
                user = SimulatedUser(
                    device=device,
                    rng=rng,
                    glove=GLOVES[glove_key],
                    handedness="left" if left_handed else "right",
                )
                user.practice_trials = 30
                device.run_for(0.5)
                targets = random_targets(
                    n_entries, n_trials, rng, min_separation=2
                )
                for target in targets:
                    trial = user.select_entry(target)
                    trials_run += 1
                    misses += trial.button_misses
                    bucket = left_times if left_handed else right_times
                    bucket.append(trial.duration_s)
                    while device.depth > 0:
                        device.click("back")
            penalty = (
                float(np.mean(left_times)) - float(np.mean(right_times))
                if left_times and right_times
                else 0.0
            )
            result.add_row(
                layout.name,
                glove_key,
                float(np.mean(right_times + left_times)),
                misses / trials_run,
                penalty,
            )

    result.note(_layouts_note(result, gloves))
    return result


def _layouts_note(result: ExperimentResult, gloves: tuple[str, ...]) -> str:
    """Per glove: every layout's left-handed penalty, and the surest layouts."""
    parts = []
    for glove in gloves:
        rows = [row for row in result.rows if row[1] == glove]
        penalties = ", ".join(f"{row[0]} {row[4]:.3g} s" for row in rows)
        largest = max(rows, key=lambda row: row[4])[0]
        fewest = min(row[3] for row in rows)
        surest = ", ".join(row[0] for row in rows if row[3] == fewest)
        parts.append(
            f"{glove}: left-handed penalty {penalties} (largest: "
            f"{largest}); fewest button misses {surest} ({fewest:.3g} per "
            "trial)"
        )
    return "measured: " + "; ".join(parts)
