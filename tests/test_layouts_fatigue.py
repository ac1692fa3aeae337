"""Tests for handedness penalties, layout study and fatigue tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.experiments.layouts import run_layouts
from repro.experiments.range_sweep import run_range_sweep
from repro.hardware.buttons import (
    RIGHT_HANDED_LAYOUT,
    SINGLE_LARGE_BUTTON_LAYOUT,
)
from repro.interaction.gloves import GLOVES
from repro.interaction.hand import Hand
from repro.interaction.user import SimulatedUser
from repro.sim.kernel import Simulator


class TestHandedness:
    def _trial_time(self, layout, handedness, seed):
        device = DistScroll(
            build_menu([f"I{i}" for i in range(8)]), seed=seed, layout=layout
        )
        user = SimulatedUser(
            device=device,
            rng=np.random.default_rng(seed),
            handedness=handedness,
        )
        user.practice_trials = 40
        device.run_for(0.5)
        return np.mean([user.select_entry(t).duration_s for t in (2, 6, 4)])

    def test_left_hand_slower_on_right_handed_prototype(self):
        lefts, rights = [], []
        for seed in range(4):
            rights.append(self._trial_time(RIGHT_HANDED_LAYOUT, "right", seed))
            lefts.append(self._trial_time(RIGHT_HANDED_LAYOUT, "left", seed))
        assert np.mean(lefts) > np.mean(rights)

    def test_ambidextrous_layout_neutral(self):
        lefts, rights = [], []
        for seed in range(4):
            rights.append(
                self._trial_time(SINGLE_LARGE_BUTTON_LAYOUT, "right", seed)
            )
            lefts.append(
                self._trial_time(SINGLE_LARGE_BUTTON_LAYOUT, "left", seed)
            )
        # Same motor model, no layout penalty: within noise of each other.
        assert abs(np.mean(lefts) - np.mean(rights)) < 0.4


class TestLayoutExperiment:
    def test_large_button_beats_prototype_in_mittens(self):
        result = run_layouts(seed=1, n_users=3, n_trials=3,
                             gloves=("arctic",))
        rows = {r[0]: r for r in result.rows}
        assert (
            rows["single-large-button"][3] < rows["prototype-3-button"][3]
        )


class TestFatigue:
    def test_holding_extended_accumulates_more(self):
        sim = Simulator(seed=0)
        near_hand = Hand(sim, lambda d: None, start_cm=8.0, rng=None)
        far_hand = Hand(sim, lambda d: None, start_cm=28.0, rng=None)
        sim.run_until(10.0)
        assert far_hand.fatigue_units > near_hand.fatigue_units

    def test_movement_adds_fatigue(self):
        sim = Simulator(seed=0)
        mover = Hand(sim, lambda d: None, start_cm=10.0, rng=None)
        holder = Hand(sim, lambda d: None, start_cm=10.0, rng=None)
        for i in range(6):
            mover.move_to(10.0 + (i % 2) * 15.0, 0.5)
            sim.run_until(sim.now + 0.6)
        assert mover.fatigue_units > holder.fatigue_units

    def test_range_sweep_reports_fatigue(self):
        result = run_range_sweep(
            seed=1,
            ranges=((5.0, 12.0), (5.0, 28.0)),
            n_entries=8,
            n_trials=3,
            n_users=1,
        )
        fatigue = result.column("fatigue_per_trial")
        assert all(f > 0 for f in fatigue)
        # Wider range forces longer, more extended reaches.
        assert fatigue[1] > fatigue[0]
