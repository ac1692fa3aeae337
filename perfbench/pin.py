"""Regenerate ``digests.json``: the pinned output of every benchmark input.

Run from the repository root after a change that is *meant* to change
the program's outputs::

    python3 perfbench/pin.py            # every workload
    python3 perfbench/pin.py arena      # one workload

The benchmark never writes pins itself; it only compares against them.
Layout: ``{workload: {experiment_seed: {output: sha256}}}`` plus a
``tiny`` section with the small configurations the benchmark's tests run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

PINS = HERE / "digests.json"

#: Small configurations the tests replay (``suite`` tests reuse the
#: per-experiment pins of seed 0, which do not depend on the other ids).
TINY = {
    "arena": lambda: workloads.arena_unit(0, n_users=1),
    "study": lambda: workloads.study_unit(0, n_users=64),
}


def main(argv: list[str]) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for name in names:
        workload = workloads.setup(name)
        table = {}
        for experiment_seed in range(workload.pool):
            table[str(experiment_seed)] = workload.run(experiment_seed).digests
            print(f"{name} seed {experiment_seed} pinned", flush=True)
        pins[name] = table
        if name in TINY:
            pins.setdefault("tiny", {})[name] = TINY[name]().digests
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
