"""ABL-GLOVE — §5.2: gloved interaction across techniques.

The first application domain is "using mobile devices when wearing
gloves of any kind for security or protection reasons ... arctic and
alpine environments ... as well as hazardous environments as can often
be found in bio- or chemical laboratories.  In general, gloves reduce
... the tactile sensation of the hand and fingers and make touch and
stylus interfaces harder to use."

The experiment crosses glove types with scrolling techniques on a fixed
selection workload and, separately, runs the stocktaking application
end-to-end per glove.  Expected shape: bare-handed, touch/buttons are
competitive; as the glove thickens their time and error cost explodes
while DistScroll (gross arm movement + one large-ish button) degrades
only mildly — the paper's whole premise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines import ALL_TECHNIQUES
from repro.experiments.harness import ExperimentResult
from repro.interaction.gloves import GLOVES

__all__ = ["run_gloves_bench", "run_stocktaking_by_glove"]


def run_gloves_bench(
    seed: int = 0,
    gloves: tuple[str, ...] = ("none", "latex", "winter", "arctic"),
    techniques: tuple[str, ...] = ("distscroll", "buttons", "touch", "tilt"),
    n_entries: int = 12,
    n_trials: int = 8,
) -> ExperimentResult:
    """Glove x technique selection-time/error matrix."""
    result = ExperimentResult(
        experiment_id="ABL-GLOVE",
        title="Selection under gloves, by technique",
        columns=(
            "glove",
            "technique",
            "mean_s",
            "errors_per_trial",
            "slowdown_vs_bare",
        ),
    )
    master = np.random.default_rng(seed)
    bare_means: dict[str, float] = {}

    for glove_key in gloves:
        glove = GLOVES[glove_key]
        for tech_name in techniques:
            rng = np.random.default_rng(int(master.integers(2**31)))
            technique = ALL_TECHNIQUES[tech_name](rng=rng, glove=glove)
            durations, errors = [], 0
            rng_targets = np.random.default_rng(seed + 17)
            position = 0
            for _ in range(n_trials):
                target = int(rng_targets.integers(0, n_entries))
                if target == position:
                    target = (target + n_entries // 2) % n_entries
                trial = technique.select(position, target, n_entries)
                durations.append(trial.duration_s)
                errors += trial.errors
                position = target
            mean = float(np.mean(durations))
            if glove_key == "none":
                bare_means[tech_name] = mean
            slowdown = mean / bare_means.get(tech_name, mean)
            result.add_row(
                glove_key, tech_name, mean, errors / n_trials, slowdown
            )
    result.note(
        "expected: touch/buttons slowdowns grow steeply with glove "
        "thickness; distscroll (gross arm movement) stays near 1x — the "
        "paper's design premise"
    )
    return result


def run_stocktaking_by_glove(
    seed: int = 0,
    gloves: tuple[str, ...] = ("none", "latex", "chemical", "winter"),
    n_items: int = 4,
) -> ExperimentResult:
    """End-to-end stocktaking throughput per glove type."""
    from repro.apps.stocktaking import StocktakingSession

    result = ExperimentResult(
        experiment_id="ABL-GLOVE/stocktaking",
        title="Stocktaking application throughput by glove",
        columns=(
            "glove",
            "items_per_minute",
            "mean_item_s",
            "wrong_activations",
        ),
    )
    for i, glove_key in enumerate(gloves):
        session = StocktakingSession(
            seed=seed + i, glove=GLOVES[glove_key], n_items=n_items
        )
        report = session.run()
        result.add_row(
            glove_key,
            report["items_per_minute"],
            report["mean_item_time_s"],
            report["wrong_activations"],
        )
    result.note(_stocktaking_note(result))
    return result


def _stocktaking_note(result: ExperimentResult) -> str:
    """The slowest glove against the fastest, and the wrong activations."""
    slowest = min(result.rows, key=lambda row: row[1])
    fastest = max(result.rows, key=lambda row: row[1])
    wrong = math.fsum(row[3] for row in result.rows)
    return (
        f"slowest: {slowest[0]} at {slowest[1]:.3g} items/min vs "
        f"{fastest[1]:.3g} for {fastest[0]} "
        f"({slowest[1] / fastest[1] - 1.0:+.0%}); {wrong:.0f} wrong "
        "activations across all gloves"
    )
