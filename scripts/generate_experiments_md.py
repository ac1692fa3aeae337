#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md by running every experiment harness.

Run:  python scripts/generate_experiments_md.py          # rewrite
      python scripts/generate_experiments_md.py --check  # exit 1 if stale
Writes the paper-vs-measured record for every figure and extension
experiment into EXPERIMENTS.md, each at the parameters of its section
below.  The ``--check`` mode backs the CI doc-drift gate: it re-runs every
experiment (seeded, so the tables are reproducible) and fails if the
committed file differs.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

from repro.experiments.ablation_mapping import run_ablation_mapping
from repro.experiments.arena import run_arena
from repro.experiments.breadth import run_breadth
from repro.experiments.calibration_ablation import run_calibration_ablation
from repro.experiments.direction import run_direction
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.firmware_ablation import run_firmware_ablation
from repro.experiments.fleet import run_fleet
from repro.experiments.foldback import run_foldback
from repro.experiments.fusion import run_fusion
from repro.experiments.gloves_bench import run_gloves_bench, run_stocktaking_by_glove
from repro.experiments.island_mapping import run_island_mapping
from repro.experiments.layouts import run_layouts
from repro.experiments.long_menus import run_long_menus
from repro.experiments.pda import run_pda
from repro.experiments.power import run_power
from repro.experiments.range_sweep import run_range_sweep
from repro.experiments.sensor_env import run_sensor_env
from repro.experiments.speed_comparison import (
    run_distance_profile,
    run_speed_comparison,
)
from repro.experiments.user_study import run_user_study

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table below is regenerated by
`python scripts/generate_experiments_md.py`, which produced this file
(its `--check` mode is CI's drift gate).  Absolute numbers come from
our simulator, not the 2005 hardware; the reproduction criterion is the
*shape* — who wins, by what rough factor, where crossovers fall.  The
paper-claim quoted with each experiment states what shape to check.

"""

SECTIONS = [
    (
        "FIG4 — sensor voltage vs. distance",
        "Paper: measured analog voltages (asterisks) with an idealized "
        "curve fitted through them; 'this value distribution comes close "
        "to the distribution in the data sheet of the GP2D120 sensor'.\n"
        "Measured: monotone hyperbolic decline ~2.8 V at 4 cm to "
        "~0.4 V at 30 cm, R² > 0.999 — reproduced.",
        lambda: run_fig4(seed=0, readings_per_point=16)[0],
    ),
    (
        "FIG5 — the same data on logarithmic axes",
        "Paper: 'the measured values nearly perfectly fit the curve'.\n"
        "Measured: log-log straight line, R² ≈ 0.9998 — reproduced.",
        lambda: run_fig5(seed=0, readings_per_point=16),
    ),
    (
        "SENS-ENV — clothing and light invariance (§4.2)",
        "Paper: colour/reflectivity 'does nearly not matter'; verified in "
        "different light conditions and with different clothing; "
        "reflective surfaces with clear boundaries are problematic.\n"
        "Measured: benign clothing within a few percent of the reference "
        "curve in every light; the mirror-patchwork surface corrupts the "
        "fit — reproduced.",
        lambda: run_sensor_env(seed=0, readings_per_point=8),
    ),
    (
        "SENS-FOLD — the <4 cm fold-back (§4.2)",
        "Paper: below 4 cm the values decline again, so near/far cannot "
        "be distinguished; tolerated because a display that close is "
        "unreadable; advanced users exploit the steep region for faster "
        "scrolling.\n"
        "Measured: every fold-back distance aliases into the 4–30 cm "
        "branch; the firmware latch preserves the selection through "
        "shallow contact; the fast-scroll gesture sustains ~12 entries/s "
        "— reproduced.",
        lambda: run_foldback(seed=2),
    ),
    (
        "MAP-ISL — island mapping properties (§4.2)",
        "Paper: entries perceptually equally spaced; islands do not cover "
        "the whole value spectrum; no selection changes between islands.\n"
        "Measured: spacing CV = 0, coverage ≈ 0.7, zero flicker at both "
        "island centers and gaps — reproduced.",
        lambda: run_island_mapping(seed=1, hold_time_s=4.0),
    ),
    (
        "STUDY1 — initial user study (§6)",
        "Paper: 'even when no hints were given, the manner of operation "
        "was promptly discovered'; 'shortly after knowing the relation "
        "... all users were able to nearly errorless use the device'.\n"
        "Measured: all simulated participants discover within seconds; "
        "error rates near zero from block 2 on — reproduced.",
        lambda: run_user_study(seed=0, n_users=12, n_blocks=4,
                               trials_per_block=8),
    ),
    (
        "EXT-SPEED — technique comparison (§7 Q1)",
        "Paper (open question): is distance scrolling faster, equal or "
        "slower than other techniques?  'So far, we only know that "
        "Fitt's Law holds for scrolling.'\n"
        "Measured: buttons grow linearly with distance, DistScroll "
        "logarithmically; crossover around 3–7 entries; Fitts regression "
        "on the closed loop has a positive slope.",
        lambda: run_speed_comparison(seed=1, menu_lengths=(8, 20),
                                     repetitions=4)[0],
    ),
    (
        "EXT-SPEED/profile — time vs. scroll distance",
        "The decisive crossover series for §7 Q1.",
        lambda: run_distance_profile(seed=1, repetitions=6),
    ),
    (
        "EXT-SPEED/fitts — Fitts's law on the full stack",
        "MT = a + b·ID regression per technique.",
        lambda: run_speed_comparison(seed=3, menu_lengths=(8, 24),
                                     repetitions=4,
                                     techniques=("distscroll",))[1],
    ),
    (
        "EXT-RANGE — is 4–30 cm appropriate? (§7 Q2)",
        "Paper (open question).\n"
        "Measured: narrow spans squeeze islands into sensor noise "
        "(more corrective submovements); wide spans cost arm excursion "
        "(fatigue proxy).  The full usable range is near the sweet spot.",
        lambda: run_range_sweep(seed=1, n_entries=10, n_trials=8, n_users=3),
    ),
    (
        "EXT-LONG — long menus via chunking (§7 Q4)",
        "Paper (open question): 'How to scroll long menus? ... chunks of "
        "e.g. 10 entries'.\n"
        "Measured: flat mapping degrades with length and hits a hard "
        "hardware ceiling (islands collapse onto identical ADC codes); "
        "chunking keeps per-trial cost flat plus paging overhead.",
        lambda: run_long_menus(seed=1, menu_lengths=(10, 20, 40, 60),
                               n_trials=6, n_users=2),
    ),
    (
        "EXT-DIR — scroll-direction polarity (§7 Q5)",
        "Paper (open question): towards oneself = down, or up?\n"
        "Measured: the polarity matching the population prior costs fewer "
        "wrong-way first reaches; the difference washes out with a few "
        "trials — polarity is learnable, with towards-down the safer "
        "default.",
        lambda: run_direction(seed=2, n_users=10, n_trials=10, n_entries=10),
    ),
    (
        "ABL-MAP — mapping ablation",
        "Removes the paper's two design choices: equal-distance placement "
        "and inter-island gaps.\n"
        "Measured: equal-code placement makes spacing wildly non-uniform "
        "(cramped near the body, exactly the failure §4.2 predicts); "
        "removing gaps admits boundary flicker.",
        lambda: run_ablation_mapping(seed=1, n_entries=12, n_trials=6,
                                     n_users=3),
    ),
    (
        "ABL-GLOVE — gloved interaction (§5.2)",
        "Paper: gloves make touch and stylus interfaces harder to use; "
        "DistScroll targets exactly those scenarios.\n"
        "Measured: touch/buttons degrade steeply with glove thickness "
        "while DistScroll stays near its bare-handed time.",
        lambda: run_gloves_bench(seed=1, n_entries=12, n_trials=8),
    ),
    (
        "ABL-GLOVE/stocktaking — application throughput by glove",
        "End-to-end §5.2 stocktaking sessions.",
        lambda: run_stocktaking_by_glove(seed=2, n_items=4),
    ),
    (
        "ABL-FW — firmware filtering ablation",
        "Sweeps the median window and confirm-sample count.  Boundary "
        "flicker is measured under the no-gaps ablation (the paper's "
        "island gaps eliminate boundaries outright); step latency under "
        "the shipped design.\n"
        "Measured: heavier filtering trades flicker for latency; the "
        "defaults stay under the ~200 ms human perception latency.",
        lambda: run_firmware_ablation(seed=1, hold_time_s=5.0),
    ),
    (
        "ABL-LAYOUT — the §6 button-design study",
        "Paper: 'a later user study will show which design will prove "
        "most useable' — 3-button prototype vs. slidable two-button vs. "
        "single large button, crossed with handedness and gloves.\n"
        "Measured: the prototype penalizes left-handers; the large "
        "button eliminates mitten fumbles (area scaling).",
        lambda: run_layouts(seed=1, n_users=8, n_trials=6),
    ),
    (
        "EXT-FUSION — the spare sensor slot, used",
        "Paper (§4): two distance sensors fitted, 'only one is used in "
        "our experiments so far'.  A 3 cm recessed second sensor breaks "
        "the fold-back ambiguity by consistency checking.\n"
        "Measured: sub-centimeter fused range even below the primary's "
        "4 cm peak; selection preserved through dives the single-sensor "
        "latch loses.",
        lambda: run_fusion(seed=1),
    ),
    (
        "ABL-CAL — per-unit calibration vs the datasheet curve",
        "The authors verified their sensor against the datasheet (§4.2); "
        "a product must decide whether every unit needs that.\n"
        "Measured: the generic datasheet mapping costs extra corrective "
        "submovements (growing with menu density); users always recover "
        "through display feedback.",
        lambda: run_calibration_ablation(seed=2, n_specimens=4, n_trials=6),
    ),
    (
        "EXT-POWER — 9 V battery life by workload",
        "The case opens for battery changes (§4.1); how often?\n"
        "Measured: the PIC plus both displays dominate at ~18 mA — about "
        "30 hours per 550 mAh block regardless of workload; RF bursts "
        "are negligible.",
        lambda: run_power(seed=1, window_s=60.0),
    ),
    (
        "EXT-BREADTH — hierarchy shape under distance scrolling",
        "Menu-design guidance for DistScroll applications: breadth vs "
        "depth at matched leaf counts.\n"
        "Measured: depth is the expensive axis (each level adds a full "
        "select cycle); flat-with-chunking and single-split shapes are "
        "comparable — breadth-first design carries over.",
        lambda: run_breadth(seed=1, n_tasks=6, n_users=2),
    ),
    (
        "FLEET — a population of devices, batched",
        "Deployment-scale counterpart to §4.2's single-unit verification: "
        "many physical units across clothing surfaces and gloves, with "
        "injected sensor faults.  Runs on the SoA batch engine "
        "(bit-equal to the scalar firmware loop).\n"
        "Measured: benign clothing surfaces corrupt almost nothing while "
        "the specular/hi-vis surfaces dominate corrupted measurements — "
        "the paper's surface caveat, reproduced at fleet scale.",
        lambda: run_fleet(seed=0, n_devices=96, duration_s=2.0,
                          devices_per_shard=32),
    ),
    (
        "ARENA — the cross-technique tournament (§7 Q1)",
        "Paper (open question): 'Is distance-based scrolling faster, "
        "equal or slower than other scrolling techniques[?]'.  Every "
        "registered technique (docs/TECHNIQUES.md) runs the ScrollTest "
        "battery over the same persona population, with fault windows "
        "injected every 4th session; ranked by "
        "mean_trial_s * (1 + error_rate).\n"
        "Measured: the position-control techniques (pointnmove, yoyo, "
        "distscroll) lead; rate control pays its braking tax; the "
        "two-handed and glove-hostile techniques carry their structural "
        "penalties in the flag columns.  Full leaderboard: "
        "docs/ARENA.md.",
        lambda: run_arena(seed=0, n_users=12),
    ),
    (
        "EXT-PDA — the §7 PDA add-on",
        "Paper: 'we also intend to construct a minimized version of the "
        "DistScroll as add-on for a PDA'.  UART-attached sensor module + "
        "host driver vs. the handheld prototype.\n"
        "Measured: the add-on preserves the interaction (selection times "
        "match); the PDA's 11-row screen more than doubles the chance an "
        "unknown target is visible without scrolling.",
        lambda: run_pda(seed=1, n_trials=8, n_users=3),
    ),
]


def render() -> str:
    """The full EXPERIMENTS.md content (runs every experiment)."""
    out = io.StringIO()
    out.write(HEADER)
    for title, commentary, runner in SECTIONS:
        print(f"running: {title}", file=sys.stderr)
        result = runner()
        out.write(f"## {title}\n\n")
        out.write(commentary + "\n\n")
        out.write("```\n")
        out.write(result.table())
        out.write("\n```\n\n")
    return out.getvalue()


def main(argv: list[str]) -> int:
    check = "--check" in argv
    text = render()
    path = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    if check:
        current = path.read_text() if path.is_file() else ""
        if current != text:
            print(
                "EXPERIMENTS.md is stale - run "
                "`python scripts/generate_experiments_md.py`",
                file=sys.stderr,
            )
            return 1
        print("EXPERIMENTS.md is up to date", file=sys.stderr)
        return 0
    path.write_text(text)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
