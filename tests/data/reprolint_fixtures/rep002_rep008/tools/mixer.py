"""Determinism fixture: one REP008 and one REP002 finding.

The engine-determinism property test lints this file among others; it
must yield exactly these two findings on every run, in any tree.
"""

import numpy as np


def mixed_channels(names: list[str]) -> list[str]:
    return list({name.lower() for name in names})


def jitter() -> float:
    return float(np.random.normal(0.0, 1.0))
