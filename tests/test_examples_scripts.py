"""Every ``examples/`` and ``scripts/`` file still imports.

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

REPO = Path(__file__).resolve().parent.parent
FILES = sorted([*REPO.glob("examples/*.py"), *REPO.glob("scripts/*.py")])


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
