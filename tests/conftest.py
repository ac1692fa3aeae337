"""Shared fixtures for the DistScroll reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DeviceConfig
from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.hardware.adc import ADC
from repro.sensors.gp2d120 import GP2D120
from repro.sim.kernel import Simulator


@pytest.fixture(scope="session")
def registry_results() -> dict:
    """Every ``REGISTRY`` id at seed 0, inline and uncached, run once.

    The one pass the experiment pins digest and EXPERIMENTS.md /
    docs/ARENA.md render from: exactly what ``repro run <ID> --seed 0``
    computes.  Read-only: tests must not mutate the results.
    """
    from repro.runner.pool import run_experiments
    from repro.runner.registry import REGISTRY

    results, _bench = run_experiments(list(REGISTRY), seed=0, jobs=1, cache=None)
    return results


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator for test-local noise."""
    return np.random.default_rng(99)


@pytest.fixture
def ideal_sensor() -> GP2D120:
    """Noise-free datasheet-typical GP2D120."""
    return GP2D120(rng=None)


@pytest.fixture
def ideal_adc() -> ADC:
    """Noise-free 10-bit ADC."""
    return ADC(rng=None)


@pytest.fixture
def flat_labels() -> list[str]:
    """A 10-entry flat menu's labels."""
    return [f"Item {i}" for i in range(10)]


@pytest.fixture
def quiet_device(flat_labels) -> DistScroll:
    """A DistScroll on ideal (noise-free) hardware — deterministic."""
    return DistScroll(build_menu(flat_labels), seed=0, noisy=False)


@pytest.fixture
def noisy_device(flat_labels) -> DistScroll:
    """A DistScroll on realistic noisy hardware."""
    return DistScroll(build_menu(flat_labels), seed=42, noisy=True)


@pytest.fixture
def fast_config() -> DeviceConfig:
    """A configuration tuned for quick tests (higher loop rates)."""
    return DeviceConfig(firmware_hz=100.0, display_refresh_hz=50.0)
