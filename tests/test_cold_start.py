"""The runtime must not import scipy: it cost every process ~0.7 s of start-up.

scipy is a dev-only dependency (the oracle for the bounded Brent port in
``repro.signal.fitting``).  This checks module presence after importing the
entry points a reader runs, not timing, so it cannot flake.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
ENTRY_POINTS = (
    "repro.cli",
    "repro.experiments.arena",
    "repro.experiments.user_study",
    "repro.runner.pool",
)


def test_entry_points_do_not_import_scipy():
    code = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *ENTRY_POINTS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "", f"scipy loaded: {result.stdout}"
