"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py --trace 0`` once per seed and prints, per metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the metric's bound::

    python3 perfbench/spread.py --workload arena --seeds 0-9
    python3 perfbench/spread.py --workload arena --seeds 0-9 --json out.json

This is the check a benchmark change must pass: every spread except
``setup_s``'s within its bound (and, for margin, under a third of it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    correct = True
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)

    summary = {}
    for name, samples in values.items():
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / q2
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "values": samples}
        print(f"{name:12s} median {q2:12.6g}  quartiles {q1:.6g}..{q3:.6g}"
              f"  spread {spread:.3f}  bound {bounds[name]}")
    print(f"correct on every run: {correct}")
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "run_seconds": spec["run_seconds"], "correct": correct,
             "metrics": summary}, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
