"""Entry points load only the modules they run.

scipy is a dev-only dependency (the oracle for the bounded Brent port in
``repro.signal.fitting``); importing it cost every process ~0.7 s of
start-up.  Package namespaces are empty, so each entry point pulls in
only its own import graph: the STUDY1 population path never loads the
device stack, and the CLI loads no experiment until one is run.  These
check module presence in a fresh interpreter, not timing, so they cannot
flake.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
ENTRY_POINTS = (
    "repro.cli",
    "repro.experiments.arena",
    "repro.experiments.user_study",
    "repro.runner.pool",
)


def loaded_modules(*entry_points: str) -> set[str]:
    """Every module in ``sys.modules`` after importing ``entry_points``."""
    code = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print(*sorted(sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *entry_points],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return set(result.stdout.split())


def test_entry_points_do_not_import_scipy():
    scipy = sorted(
        m for m in loaded_modules(*ENTRY_POINTS) if m.split(".")[0] == "scipy"
    )
    assert scipy == [], f"scipy loaded: {scipy}"


@pytest.mark.parametrize(
    "entry, forbidden",
    [
        (
            "repro.experiments.user_study",
            (
                "repro.core.device",
                "repro.core.firmware",
                "repro.core.batch",
                "repro.hardware.board",
                "repro.baselines",
                "repro.apps",
            ),
        ),
        (
            "repro.experiments.arena",
            ("repro.core.batch", "repro.experiments.user_study"),
        ),
    ],
)
def test_entry_point_skips_modules_it_never_runs(entry, forbidden):
    loaded = loaded_modules(entry)
    assert sorted(loaded.intersection(forbidden)) == []


def test_cli_loads_no_experiment_or_device_module():
    stray = sorted(
        m
        for m in loaded_modules("repro.cli")
        if m.startswith(("repro.experiments.", "repro.core."))
        and m != "repro.experiments.harness"
    )
    assert stray == []


def test_quickstart_names_resolve_lazily():
    loaded = loaded_modules("repro")
    assert not any(m.startswith("repro.core") for m in loaded)
    from repro import DistScroll, Simulator, build_menu
    from repro.core.device import DistScroll as defined
    from repro.sim import Simulator as defined_sim

    assert DistScroll is defined and Simulator is defined_sim
    assert callable(build_menu)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        repro.missing  # noqa: B018
