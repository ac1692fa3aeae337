"""Inside a ``run_until`` window only the hand draws from the participant
generator.

``Hand`` pre-draws a window's tremor normals in one call when its first
update in the window runs (see ``Hand._draw_block``).  That is exact only
while nothing else draws from the same generator until the window ends:
the user model, the DistScroll technique and the hand share it, and user
code runs between windows.  These tests check that invariant on a real
DistScroll ARENA session and on the registered EXT-RANGE experiment by
routing the participant generator through a recording proxy.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import ALL_TECHNIQUES
from repro.baselines.distscroll import DistScrollTechnique
from repro.experiments import range_sweep
from repro.experiments.arena import run_arena_block
from repro.interaction.user import SimulatedUser
from repro.runner.pool import run_experiments
from repro.sim.kernel import Simulator

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
HAND = "repro.interaction.hand"


class RecordingGenerator:
    """Forwards to a generator and logs every draw.

    Each entry is ``(method, calling module, window open)``; a window is
    open while any ``Simulator.run_until`` call is on the stack.
    """

    def __init__(self, rng: np.random.Generator, log: list, depth: list):
        self._rng = rng
        self._log = log
        self._depth = depth

    def __getattr__(self, name: str):
        attr = getattr(self._rng, name)
        if name == "bit_generator" or not callable(attr):
            return attr

        def draw(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            self._log.append((name, caller, self._depth[0] > 0))
            return attr(*args, **kwargs)

        return draw


@pytest.fixture
def windows(monkeypatch):
    """``(log, depth)``: the draw log and the open-window depth counter."""
    log: list = []
    depth = [0]
    run_until = Simulator.run_until

    def counted(sim, end_time):
        depth[0] += 1
        try:
            run_until(sim, end_time)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Simulator, "run_until", counted)
    return log, depth


def _assert_only_the_hand_draws_in_windows(log: list) -> None:
    inside = [entry for entry in log if entry[2]]
    outside = [entry for entry in log if not entry[2]]
    # Not vacuous: the hand drew inside windows and the user between them.
    assert any(caller == HAND for _name, caller, _open in inside)
    assert any(caller != HAND for _name, caller, _open in outside)
    strangers = {(name, caller) for name, caller, _open in inside
                 if caller != HAND}
    assert not strangers, f"drew inside a run_until window: {strangers}"


def _arena_snapshot(seed: int) -> str:
    aggregate = run_arena_block(seed, 0, 2, techniques=["distscroll"])
    return json.dumps(aggregate.snapshot(), sort_keys=True)


class TestWindowInvariant:
    def test_distscroll_arena_session(self, windows, monkeypatch):
        log, depth = windows
        plain = _arena_snapshot(3)

        class Recording(DistScrollTechnique):
            def __post_init__(self) -> None:
                self.rng = RecordingGenerator(self.rng, log, depth)
                super().__post_init__()

        monkeypatch.setitem(ALL_TECHNIQUES, "distscroll", Recording)
        assert _arena_snapshot(3) == plain
        _assert_only_the_hand_draws_in_windows(log)

    def test_registered_ext_range(self, windows, monkeypatch):
        log, depth = windows

        def recording(device, rng, **kwargs):
            return SimulatedUser(
                device=device, rng=RecordingGenerator(rng, log, depth),
                **kwargs,
            )

        monkeypatch.setattr(range_sweep, "SimulatedUser", recording)
        results, _ = run_experiments(["EXT-RANGE"], seed=0, jobs=1, cache=None)
        digest = hashlib.sha256(results["EXT-RANGE"].csv_bytes()).hexdigest()
        pins = json.loads(DIGESTS.read_text())["suite"]["0"]
        assert digest == pins["EXT-RANGE"]
        _assert_only_the_hand_draws_in_windows(log)

    def test_the_proxy_catches_a_draw_inside_a_window(self, windows):
        log, depth = windows
        sim = Simulator(seed=0)
        rng = RecordingGenerator(np.random.default_rng(0), log, depth)
        sim.schedule(0.1, rng.random)
        sim.run_until(0.2)
        rng.random()
        log.append(("standard_normal", HAND, True))
        with pytest.raises(AssertionError, match="drew inside"):
            _assert_only_the_hand_draws_in_windows(log)
