"""EXT-SPEED — §7 Q1: is distance scrolling faster than the alternatives?

"Is distance-based scrolling faster, equal or slower than other scrolling
techniques.  So far, we only know that Fitt's Law holds for scrolling."

Protocol: every technique from the Related Work runs the same
(start, target) ladders over several menu lengths.  Reported per
technique x menu length: mean selection time and error rate.  Each
technique's (ID, MT) pairs are also regressed, one ``fitts`` note per
fit, to confirm Fitts's law holds in DistScroll's full closed loop — the
paper's one known quantitative anchor.

Expected shape: button scrolling is linear in scroll *distance* (good for
neighbours, bad for far targets); tilt rate-control sits between; the
position-control techniques (DistScroll, YoYo) are logarithmic in
distance, so they win increasingly with menu length.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import summarize
from repro.baselines import ALL_TECHNIQUES
from repro.experiments.harness import ExperimentResult
from repro.interaction.fitts import fit_fitts
from repro.interaction.gloves import GLOVES

__all__ = ["run_speed_comparison", "run_distance_profile"]


def run_speed_comparison(
    seed: int = 0,
    menu_lengths: tuple[int, ...] = (8, 20),
    repetitions: int = 4,
    techniques: tuple[str, ...] = (
        "distscroll",
        "buttons",
        "tilt",
        "wheel",
        "yoyo",
        "touch",
    ),
    glove_key: str = "none",
) -> ExperimentResult:
    """Run the cross-technique comparison plus the Fitts regression.

    Each technique with at least three distinct indices of difficulty
    gets one ``fitts <technique>: a=..., b=... s/bit, r2=..., n=...``
    note for its MT = a + b*ID fit; notes stay out of the CSV bytes.
    """
    comparison = ExperimentResult(
        experiment_id="EXT-SPEED",
        title=f"Selection time by technique and menu length (glove={glove_key})",
        columns=(
            "technique",
            "menu_len",
            "mean_s",
            "sd_s",
            "errors_per_trial",
            "one_handed",
        ),
    )
    comparison.note(
        "expected shape: buttons grow linearly with target distance; "
        "position-control (distscroll, yoyo) grow logarithmically; "
        "wheel and touch need the second hand"
    )
    glove = GLOVES[glove_key]
    master = np.random.default_rng(seed)
    distscroll_fit = None

    for tech_name in techniques:
        factory = ALL_TECHNIQUES[tech_name]
        ids_all: list[float] = []
        times_all: list[float] = []
        for n_entries in menu_lengths:
            rng = np.random.default_rng(int(master.integers(2**31)))
            technique = factory(rng=rng, glove=glove)
            pairs = _ladder(n_entries, repetitions)
            durations = []
            errors = 0
            for start, target in pairs:
                trial = technique.select(start, target, n_entries)
                durations.append(trial.duration_s)
                errors += trial.errors
                if trial.index_of_difficulty > 0:
                    ids_all.append(trial.index_of_difficulty)
                    times_all.append(trial.duration_s)
            stats = summarize(np.asarray(durations))
            comparison.add_row(
                tech_name,
                n_entries,
                stats.mean,
                stats.std,
                errors / len(pairs),
                "yes" if technique.one_handed else "NO",
            )
        if len(set(np.round(ids_all, 3))) >= 3:
            fit = fit_fitts(np.asarray(ids_all), np.asarray(times_all))
            comparison.note(
                f"fitts {tech_name}: a={fit.a:.4g} s, b={fit.b:.4g} s/bit, "
                f"r2={fit.r2:.4g}, n={fit.n}"
            )
            if tech_name == "distscroll":
                distscroll_fit = fit

    if distscroll_fit is not None:
        b, r2 = distscroll_fit.b, distscroll_fit.r2
        slope = "positive" if b > 0 else "non-positive"
        comparison.note(
            "paper §7: 'we only know that Fitt's Law holds for scrolling' — "
            f"distscroll's closed-loop fit has a {slope} slope "
            f"(b={b:.4g} s/bit) and ID explains {r2:.0%} of the variance "
            f"(r2={r2:.4g}) in whole-trial time, which also holds reaction, "
            "verification, button noise and chunk paging on menus longer "
            "than one chunk"
        )
    return comparison


def run_distance_profile(
    seed: int = 0,
    n_entries: int = 24,
    distances: tuple[int, ...] = (1, 3, 7, 15, 23),
    repetitions: int = 6,
    techniques: tuple[str, ...] = ("distscroll", "buttons", "tilt", "yoyo"),
) -> ExperimentResult:
    """Selection time vs scroll distance — the linear/log crossover plot.

    The decisive series: button scrolling grows linearly with the number
    of entries to traverse; DistScroll (position control) grows with the
    *logarithm* (Fitts), so the curves cross and diverge with distance.
    """
    result = ExperimentResult(
        experiment_id="EXT-SPEED/profile",
        title=f"Selection time vs scroll distance ({n_entries}-entry menu)",
        columns=("technique", "distance", "mean_s", "errors_per_trial"),
    )
    master = np.random.default_rng(seed)
    for tech_name in techniques:
        rng = np.random.default_rng(int(master.integers(2**31)))
        technique = ALL_TECHNIQUES[tech_name](rng=rng)
        for distance in distances:
            if distance >= n_entries:
                continue
            durations, errors = [], 0
            for rep in range(repetitions):
                lo = (n_entries - 1 - distance) // 2
                hi = lo + distance
                start, target = (lo, hi) if rep % 2 == 0 else (hi, lo)
                trial = technique.select(start, target, n_entries)
                durations.append(trial.duration_s)
                errors += trial.errors
            result.add_row(
                tech_name,
                distance,
                float(np.mean(durations)),
                errors / repetitions,
            )
    result.note(_profile_note(result))
    return result


def _profile_note(result: ExperimentResult) -> str:
    """Each technique's growth and the distscroll/buttons crossover, as measured."""
    means: dict[str, dict[int, float]] = {}
    for technique, distance, mean, _errors in result.rows:
        means.setdefault(technique, {})[distance] = mean
    growth = "; ".join(
        f"{technique} {by[min(by)]:.3g} s at distance {min(by)} -> "
        f"{by[max(by)]:.3g} s at {max(by)}"
        for technique, by in means.items()
    )
    note = f"measured: {growth}"
    dist, buttons = means.get("distscroll"), means.get("buttons")
    if dist and buttons:
        ahead = [d for d in dist if d in buttons and dist[d] < buttons[d]]
        if ahead:
            note += (
                "; distscroll is faster than buttons at distance "
                + ", ".join(str(d) for d in ahead)
            )
        else:
            note += "; buttons are faster than distscroll at every distance"
    return note


def _ladder(n_entries: int, repetitions: int) -> list[tuple[int, int]]:
    distances = sorted({1, 2, max(n_entries // 4, 3), max(n_entries // 2, 4),
                        n_entries - 1})
    pairs = []
    for d in distances:
        if d <= 0 or d >= n_entries:
            continue
        for rep in range(repetitions):
            lo = (n_entries - 1 - d) // 2
            hi = lo + d
            pairs.append((lo, hi) if rep % 2 == 0 else (hi, lo))
    return pairs
