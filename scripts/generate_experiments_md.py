#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md and docs/ARENA.md from one registry pass.

Run:  PYTHONPATH=src python scripts/generate_experiments_md.py          # rewrite
      PYTHONPATH=src python scripts/generate_experiments_md.py --check  # exit 1 if stale

Runs every ``REGISTRY`` experiment once, inline at seed 0 — the results
``tests/test_experiment_pins.py`` digests — and renders both documents
from them, so every table is exactly what ``repro run <ID> --seed 0``
prints.  The registry is the one definition of each experiment's
parameters; this file holds only the prose around the tables.  The
``--check`` mode backs the CI doc-drift gate and names each stale file.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.runner.pool import run_experiments
from repro.runner.registry import REGISTRY

REPO = Path(__file__).resolve().parent.parent

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table below is `repro run <ID> --seed 0` at the registry
parameters — the same results the experiment pins digest — regenerated
with `python scripts/generate_experiments_md.py` (its `--check` mode is
CI's drift gate).  Absolute numbers come from our simulator, not the
2005 hardware; the reproduction criterion is the *shape* — who wins, by
what rough factor, where crossovers fall.  The paper-claim quoted with
each experiment states what shape to check.

"""

#: ``(experiment_id, heading, commentary)``: one section per registry id.
SECTIONS = [
    (
        "FIG4",
        "sensor voltage vs. distance",
        "Paper: measured analog voltages (asterisks) with an idealized "
        "curve fitted through them; 'this value distribution comes close "
        "to the distribution in the data sheet of the GP2D120 sensor'.\n"
        "Measured: monotone hyperbolic decline from 2.76 V at 4 cm to "
        "0.48 V at 30 cm; the idealized fit has R² = 1.0000 and a 3.3 mV "
        "rms residual — reproduced.",
    ),
    (
        "FIG5",
        "the same data on logarithmic axes",
        "Paper: 'the measured values nearly perfectly fit the curve'.\n"
        "Measured: log-log straight line, R² ≈ 0.9998 — reproduced.",
    ),
    (
        "SENS-ENV",
        "clothing and light invariance (§4.2)",
        "Paper: colour/reflectivity 'does nearly not matter'; verified in "
        "different light conditions and with different clothing; "
        "reflective surfaces with clear boundaries are problematic.\n"
        "Measured: benign clothing stays within 7% of the reference "
        "curve in every light; the two specular surfaces (hi-vis vest, "
        "mirror patchwork) deviate by 81–203% and corrupt the fit — "
        "reproduced.",
    ),
    (
        "SENS-FOLD",
        "the <4 cm fold-back (§4.2)",
        "Paper: below 4 cm the values decline again, so near/far cannot "
        "be distinguished; tolerated because a display that close is "
        "unreadable; advanced users exploit the steep region for faster "
        "scrolling.\n"
        "Measured: every fold-back distance aliases into the 4–30 cm "
        "branch, and the fast-scroll gesture sustains 11.5 entries/s — "
        "reproduced.  The 2.4 cm dive loses the selection with and "
        "without the fold-back latch at this seed, so the table does not "
        "show the latch preserving a selection.",
    ),
    (
        "MAP-ISL",
        "island mapping properties (§4.2)",
        "Paper: entries perceptually equally spaced; islands do not cover "
        "the whole value spectrum; no selection changes between islands.\n"
        "Measured: spacing CV = 0 and coverage ≈ 0.7 at every menu size, "
        "and zero flicker while holding at island centers — reproduced.  "
        "Holding in a gap is not fully quiet: 10, 20 and 40-entry maps "
        "flicker at 0.25 Hz there.",
    ),
    (
        "STUDY1",
        "initial user study (§6)",
        "Paper: 'even when no hints were given, the manner of operation "
        "was promptly discovered'; 'shortly after knowing the relation "
        "... all users were able to nearly errorless use the device'.\n"
        "Measured: all 8 simulated participants discover the mapping "
        "without hints (median 4.8 s); the error rate is 0.04 in block 1 "
        "and zero from block 2 on — reproduced.",
    ),
    (
        "EXT-SPEED",
        "technique comparison (§7 Q1)",
        "Paper (open question): is distance scrolling faster, equal or "
        "slower than other techniques?  'So far, we only know that "
        "Fitt's Law holds for scrolling.'  The `fitts` notes give each "
        "technique's MT = a + b·ID regression.\n"
        "Measured (one simulated user per technique, 4 repetitions): "
        "distscroll is slower than buttons at both menu lengths and grows "
        "more from 8 to 20 entries (+69% vs +43%); yoyo is fastest at "
        "both.  The table shows no crossover; the profile below "
        "puts it between 7 and 15 entries.  DistScroll's closed-loop "
        "Fitts fit has a positive slope (b = 0.35 s/bit) but explains "
        "little (r2 = 0.13).",
    ),
    (
        "EXT-SPEED-PROFILE",
        "time vs. scroll distance",
        "The decisive crossover series for §7 Q1.\n"
        "Measured (one simulated user per technique, 6 repetitions): "
        "buttons beat distscroll up to distance 7 (2.28 vs 2.44 s) and "
        "lose from 15 on (3.19 vs 2.53 s at 15).  DistScroll is not flat "
        "beyond 3 entries (1.44 s at 3, 2.44 s at 7); yoyo is fastest "
        "from distance 3 on.",
    ),
    (
        "EXT-RANGE",
        "is 4–30 cm appropriate? (§7 Q2)",
        "Paper (open question).\n"
        "Measured (2 users × 6 trials): no span causes a wrong selection; "
        "the 7 and 13 cm spans need more corrective submovements "
        "(1.25–1.33 vs 1.0).  Fatigue per trial grows with span and with "
        "distance from the body (highest at 15–28 cm).  The fastest "
        "ranges are 10–28 cm (1.50 s) and the widest, 5–28 cm (1.57 s), "
        "so the full usable range sits near the sweet spot.",
    ),
    (
        "EXT-LONG",
        "long menus via chunking (§7 Q4)",
        "Paper (open question): 'How to scroll long menus? ... chunks of "
        "e.g. 10 entries'.\n"
        "Measured (2 users × 5 trials, menus up to 40 entries): flat "
        "mapping holds to 20 entries and doubles at 40 (3.37 s, 0.2 wrong "
        "per trial); past 73 entries it is impossible, because islands "
        "collapse onto identical ADC codes.  Chunking also grows "
        "(1.47 → 2.52 s) but less, and beats flat at 10 and 40 entries; "
        "SDAZ costs about 3 s from 20 entries on.",
    ),
    (
        "EXT-DIR",
        "scroll-direction polarity (§7 Q5)",
        "Paper (open question): towards oneself = down, or up?\n"
        "Measured (8 users × 8 trials): towards-down costs one wrong-way "
        "first reach fewer (5 vs 6) but is slower over the first three "
        "trials (2.62 vs 2.25 s); by the last three trials both "
        "polarities sit near 1.6 s — polarity is learnable.  At this "
        "size the table does not single out a safer default.",
    ),
    (
        "ABL-MAP",
        "mapping ablation",
        "Removes the paper's two design choices: equal-distance placement "
        "and inter-island gaps.\n"
        "Measured (2 users × 5 trials): equal-code placement makes "
        "spacing non-uniform (CV 0.91, the failure §4.2 predicts) and is "
        "the slowest variant (1.89 vs 1.64 s), though it adds no wrong "
        "selections here; removing gaps raises boundary flicker from 0.6 "
        "to 4.6 Hz.",
    ),
    (
        "ABL-GLOVE",
        "gloved interaction (§5.2)",
        "Paper: gloves make touch and stylus interfaces harder to use; "
        "DistScroll targets exactly those scenarios.\n"
        "Measured: in arctic mittens touch slows to 3.0× and buttons to "
        "1.6× their bare-handed time, while distscroll slows to 1.3×.  "
        "Tilt degrades least (1.1×), but makes 0.5 errors per trial with "
        "or without gloves.",
    ),
    (
        "ABL-GLOVE-STOCK",
        "application throughput by glove",
        "End-to-end §5.2 stocktaking sessions.\n"
        "Measured (3 items per session): every glove class logs its "
        "items with no wrong activation.  The latex session is the "
        "slowest (11.5 vs 17.1 items/min bare); winter gloves cost "
        "about 5%.",
    ),
    (
        "ABL-FW",
        "firmware filtering ablation",
        "Sweeps the median window and confirm-sample count.  Boundary "
        "flicker is measured under the no-gaps ablation (the paper's "
        "island gaps eliminate boundaries outright); step latency under "
        "the shipped design.\n"
        "Measured: heavier filtering trades flicker for latency (6.2 Hz "
        "at 88 ms down to 1.4 Hz at 267 ms); the defaults (median 3, "
        "confirm 2) stay at 142 ms, under the ~200 ms human perception "
        "latency.",
    ),
    (
        "ABL-LAYOUT",
        "the §6 button-design study",
        "Paper: 'a later user study will show which design will prove "
        "most useable' — 3-button prototype vs. slidable two-button vs. "
        "single large button, crossed with handedness and gloves.\n"
        "Measured (5 users × 4 trials): the prototype penalizes "
        "left-handers (0.195 s bare, 0.259 s in arctic mittens), but the "
        "single large button shows a larger bare-handed penalty "
        "(0.235 s); only the slidable two-button design shows no "
        "left-handed penalty.  "
        "The large button nearly eliminates mitten fumbles (0.05 vs 0.5 "
        "misses per trial, area scaling).",
    ),
    (
        "EXT-FUSION",
        "the spare sensor slot, used",
        "Paper (§4): two distance sensors fitted, 'only one is used in "
        "our experiments so far'.  A 3 cm recessed second sensor breaks "
        "the fold-back ambiguity by consistency checking.\n"
        "Measured: every fused reading is within 0.4 cm of the truth, "
        "including 1.5 and 3 cm inside the primary's fold-back.  At this "
        "seed the single-sensor latch also keeps the selection through "
        "all three dives, so the table shows no dive that only the second "
        "sensor saves.",
    ),
    (
        "ABL-CAL",
        "per-unit calibration vs the datasheet curve",
        "The authors verified their sensor against the datasheet (§4.2); "
        "a product must decide whether every unit needs that.\n"
        "Measured: the generic datasheet mapping costs extra corrective "
        "submovements, growing with menu density (+1.1 at 6 entries, "
        "+1.5 at 16).  Users recover through display feedback in 93–100% "
        "of datasheet trials; calibrated units never fail.",
    ),
    (
        "EXT-POWER",
        "9 V battery life by workload",
        "The case opens for battery changes (§4.1); how often?\n"
        "Measured: the PIC plus both displays dominate at ~18 mA — about "
        "30 hours per 550 mAh block regardless of workload; RF bursts "
        "are negligible.",
    ),
    (
        "ROB-FAULT",
        "selection errors vs. hardware fault intensity (§4.2)",
        "§4.2 lists what can go wrong between hand and highlight and the "
        "firmware's defenses.  A fault plan injects ADC glitches, I2C bus "
        "errors, display resets, RF packet loss and sensor occlusion at a "
        "swept intensity while a scripted hand points.\n"
        "Measured: no selection error up to intensity 0.15; the error "
        "rate then rises monotonically to 0.64 at 0.85.  Every injected "
        "fault is paired with a firmware recovery record "
        "(unpaired_faults = 0).",
    ),
    (
        "EXT-BREADTH",
        "hierarchy shape under distance scrolling",
        "Menu-design guidance for DistScroll applications: breadth vs "
        "depth at matched leaf counts.\n"
        "Measured (2 users × 4 tasks): depth is the expensive axis — the "
        "3-level trees are slowest at both sizes (4.0–4.2 s per leaf).  "
        "Flat wins at 27 leaves (2.12 vs 2.68 s), the 8×8 split at 64 "
        "(2.83 vs 3.58 s), so minimize depth first.",
    ),
    (
        "FLEET",
        "a population of devices",
        "Deployment-scale counterpart to §4.2's single-unit verification: "
        "many physical units across clothing surfaces and gloves, with "
        "injected sensor faults.  Each device is the firmware's signal "
        "chain stepped by its own scalar engine, in blocks of devices.\n"
        "Measured (512 devices × 2 s): no benign clothing surface "
        "corrupts a single measurement, while the hi-vis vest (938) and "
        "the mirror patchwork (2,016) hold every corrupted one — the "
        "paper's surface caveat, reproduced at fleet scale.",
    ),
    (
        "ARENA",
        "the cross-technique tournament (§7 Q1)",
        "Paper (open question): 'Is distance-based scrolling faster, "
        "equal or slower than other scrolling techniques[?]'.  Every "
        "registered technique (docs/TECHNIQUES.md) runs the ScrollTest "
        "battery over the same persona population, with fault windows "
        "injected every 4th session; ranked by "
        "mean_trial_s * (1 + error_rate).\n"
        "Measured (16 personas): the position-control techniques "
        "(pointnmove, yoyo, distscroll) lead; rate control pays its braking tax; the "
        "two-handed and glove-hostile techniques carry their structural "
        "penalties in the flag columns.  Full leaderboard: "
        "docs/ARENA.md.",
    ),
    (
        "EXT-PDA",
        "the §7 PDA add-on",
        "Paper: 'we also intend to construct a minimized version of the "
        "DistScroll as add-on for a PDA'.  UART-attached sensor module + "
        "host driver vs. the handheld prototype.\n"
        "Measured (2 users × 6 trials): the add-on keeps every selection "
        "successful and is faster here (1.54 vs 2.25 s), so the table "
        "does not show matching selection times.  The PDA's 11-row "
        "screen more than doubles the chance an unknown target is "
        "visible without scrolling (0.55 vs 0.25).",
    ),
]

ARENA_HEADER = '''\
# ARENA — the cross-technique tournament

<!-- Generated by scripts/generate_experiments_md.py — edit
     src/repro/experiments/arena.py, not this file. -->

"Is distance-based scrolling faster, equal or slower than other
scrolling techniques[?]" (§7, open question 1).  The arena runs every
technique in [TECHNIQUES.md](TECHNIQUES.md) through the same
ScrollTest-style battery (short-near / short-far / long-menu /
error-recovery) over the same persona population, folds speed,
accuracy, error recovery and fatigue into exact streaming aggregators,
and ranks by the composite score

    score = mean_trial_s * (1 + error_rate)

(lower is better: raw speed penalized by wrong activations).  Every
4th participant's session injects a `TechniqueFault` window — grip
loss, tracker dropout, stuck pad — over the middle third of their
trials; techniques degrade gracefully and the notes quantify the
slowdown.

DistScroll runs its *full* sensor-to-firmware closed loop while the
baselines get idealized operator models, so its ranking is
conservative (see `repro.baselines.base`).

'''

ARENA_USAGE = '''\
## Reproduce it

The committed leaderboard is `repro run ARENA` at seed 0 (the registry
defaults; 16 personas, ScrollTest battery, all techniques).  Reshape
the tournament from the CLI — any `--jobs` value is byte-identical:

```console
repro run ARENA --users 64 --jobs 4 --csv arena.csv
repro run ARENA --battery smoke --personas glove=winter,arctic
```

Or drive it from Python, subsetting the roster (a subset replays
exactly the bits a full run gives those techniques, courtesy of
roster-indexed spawn keys):

```python
>>> from repro.experiments.arena import run_arena
>>> result = run_arena(seed=0, n_users=4, battery="smoke",
...                    techniques=("buttons", "tilt", "yoyo"))
>>> result.columns[:3]
('rank', 'technique', 'score')
>>> len(result.rows)
3
>>> [row[1] for row in result.rows] == sorted(
...     (row[1] for row in result.rows),
...     key=lambda key: [r[2] for r in result.rows if r[1] == key][0],
... )
True

```
'''


def render(results) -> dict[str, str]:
    """Each generated document's text, keyed by its path in the repo.

    Pure: ``results`` maps every registry id to its seed-0 result, and
    each table is that result's ``table()`` — what ``repro run`` prints.
    """
    parts = [HEADER]
    for experiment_id, heading, commentary in SECTIONS:
        parts.append(
            f"## {experiment_id} — {heading}\n\n{commentary}\n\n"
            f"```\n{results[experiment_id].table()}\n```\n\n"
        )
    arena = "\n".join([
        ARENA_HEADER,
        "## Leaderboard\n",
        "```",
        results["ARENA"].table(),
        "```\n",
        ARENA_USAGE,
    ])
    return {"EXPERIMENTS.md": "".join(parts), "docs/ARENA.md": arena}


def run_registry() -> dict:
    """The one pass: every registry id at seed 0, inline, uncached."""
    results, _bench = run_experiments(
        list(REGISTRY),
        seed=0,
        jobs=1,
        cache=None,
        echo=lambda line: print(line, file=sys.stderr),
    )
    return results


def main(argv: list[str]) -> int:
    check = "--check" in argv
    documents = render(run_registry())
    stale = []
    for name, text in documents.items():
        path = REPO / name
        if check:
            current = path.read_text(encoding="utf-8") if path.is_file() else ""
            if current != text:
                stale.append(name)
                print(
                    f"{name} is stale - run "
                    "`python scripts/generate_experiments_md.py`",
                    file=sys.stderr,
                )
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
    if check and not stale:
        print(f"{' and '.join(documents)} are up to date", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
