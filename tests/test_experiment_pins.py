"""Every registered experiment reproduces its pinned CSV at seed 0.

The pins are ``perfbench/digests.json["suite"]["0"]``: one sha256 per
experiment CSV, written only by ``perfbench/pin.py``.  This test reads
them; a refactor that moves a single byte of any experiment's output
fails here under that experiment's id.  The results come from the
session's one registry pass (``registry_results`` in ``conftest.py``),
which the generated-docs checks render too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.runner.registry import REGISTRY

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
PINS = json.loads(DIGESTS.read_text())["suite"]["0"]


def test_every_experiment_is_pinned():
    assert sorted(PINS) == sorted(REGISTRY)


@pytest.mark.parametrize("experiment_id", list(REGISTRY))
def test_experiment_matches_pin(experiment_id, registry_results):
    digest = hashlib.sha256(
        registry_results[experiment_id].csv_bytes()
    ).hexdigest()
    assert digest == PINS[experiment_id]
