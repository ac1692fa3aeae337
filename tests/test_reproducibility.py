"""Reproducibility guarantees: same seed → identical results, everywhere.

The README promises "a fixed seed reproduces every number in
EXPERIMENTS.md bit for bit"; these tests hold the library to it at three
levels — device event streams, closed-loop trials, and whole experiment
tables — and exercise every registered experiment end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.experiments.fig4 import run_fig4
from repro.experiments.island_mapping import run_island_mapping
from repro.interaction.user import SimulatedUser
from repro.runner.registry import REGISTRY


def _device_event_fingerprint(seed: int) -> list:
    device = DistScroll(build_menu([f"I{i}" for i in range(8)]), seed=seed)
    for distance in (25.0, 9.0, 17.0, 6.0):
        device.hold_at(distance)
        device.run_for(0.4)
    device.click("select")
    return [(round(t, 9), e.kind, getattr(e, "index", None))
            for t, e in device.events()]


def _trial_fingerprint(seed: int) -> tuple:
    device = DistScroll(build_menu([f"I{i}" for i in range(8)]), seed=seed)
    user = SimulatedUser(device=device, rng=np.random.default_rng(seed))
    user.practice_trials = 20
    device.run_for(0.5)
    result = user.select_entry(5)
    return (round(result.duration_s, 9), result.submovements,
            result.wrong_activations, result.success)


class TestDeterminism:
    def test_device_event_stream_is_reproducible(self):
        assert _device_event_fingerprint(7) == _device_event_fingerprint(7)

    def test_different_seeds_differ(self):
        assert _device_event_fingerprint(7) != _device_event_fingerprint(8)

    def test_closed_loop_trial_is_reproducible(self):
        assert _trial_fingerprint(3) == _trial_fingerprint(3)

    def test_experiment_table_is_reproducible(self):
        a, _ = run_fig4(seed=5, readings_per_point=4)
        b, _ = run_fig4(seed=5, readings_per_point=4)
        assert a.rows == b.rows

    def test_island_experiment_reproducible(self):
        a = run_island_mapping(seed=2, hold_time_s=1.0)
        b = run_island_mapping(seed=2, hold_time_s=1.0)
        assert a.rows == b.rows


#: Runners cheap enough to execute inside the unit-test suite.
_FAST_RUNNERS = (
    "FIG4",
    "FIG5",
    "SENS-FOLD",
    "MAP-ISL",
    "EXT-FUSION",
)


class TestRunnerRegistry:
    @pytest.mark.parametrize("experiment_id", _FAST_RUNNERS)
    def test_fast_runner_produces_consistent_table(self, experiment_id):
        result = REGISTRY[experiment_id].run_whole(3)
        assert result.rows, f"{experiment_id} produced no rows"
        arities = {len(row) for row in result.rows}
        assert arities == {len(result.columns)}
        # The table must render without error.
        assert experiment_id.split("-")[0] in result.table()

    def test_registry_covers_design_doc_ids(self):
        """Every DESIGN.md experiment family has a CLI entry."""
        families = {eid.split("/")[0].split("-PROFILE")[0]
                    for eid in REGISTRY}
        for required in ("FIG4", "FIG5", "SENS-ENV", "SENS-FOLD", "MAP-ISL",
                         "STUDY1", "EXT-SPEED", "EXT-RANGE", "EXT-LONG",
                         "EXT-DIR", "EXT-FUSION", "EXT-PDA", "EXT-POWER",
                         "EXT-BREADTH", "ABL-MAP", "ABL-GLOVE", "ABL-FW",
                         "ABL-LAYOUT", "ABL-CAL"):
            assert required in families or required in REGISTRY, (
                f"missing runner for {required}"
            )

    def test_csv_export_for_every_fast_runner(self, tmp_path):
        for experiment_id in _FAST_RUNNERS:
            result = REGISTRY[experiment_id].run_whole(1)
            path = tmp_path / f"{experiment_id.replace('/', '_')}.csv"
            result.to_csv(path)
            lines = path.read_text().strip().splitlines()
            assert len(lines) == len(result.rows) + 1
