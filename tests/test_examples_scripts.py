"""Every ``examples/`` and ``scripts/`` file still imports, and every
example runs end to end.

Nothing else runs these files, so a moved or deleted import would only
surface in a reader's terminal.  Each file keeps its work behind a
``__main__`` guard, so running it under another name executes only its
imports and top-level definitions.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO / "examples"
FILES = sorted([*EXAMPLES_DIR.glob("*.py"), *REPO.glob("scripts/*.py")])


def test_examples_and_scripts_import():
    assert FILES
    code = (
        "import runpy, sys, traceback\n"
        "for path in sys.argv[1:]:\n"
        "    try:\n"
        "        runpy.run_path(path, run_name='__smoke__')\n"
        "    except Exception:\n"
        "        print(path)\n"
        "        traceback.print_exc(file=sys.stdout)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *map(str, FILES)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout == "", result.stdout[-4000:]


@pytest.mark.parametrize(
    "script",
    sorted(p.name for p in EXAMPLES_DIR.glob("*.py")),
)
def test_example_runs_clean(script):
    """Every shipped example must execute end to end."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} printed nothing"
