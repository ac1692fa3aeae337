"""``bootstrap_ci`` draws every resample at once, with the loop's bytes.

The CI draws its ``n_boot`` resamples' indices as one ``(n_boot, n)``
block and reduces each row with ``mean(axis=1)``.  The per-resample loop
it replaced is kept here as the oracle: both endpoints and the
generator's next draw must equal the loop's.  The sample sizes straddle
numpy's pairwise-summation boundaries (8/9 and 128/129), so a numpy
that reduces the rows of a 2-D block differently from a 1-D array fails
here rather than silently moving EXT-SPEED's pinned table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import bootstrap_ci, summarize

SIZES = (2, 7, 8, 9, 20, 127, 128, 129, 300)
SEEDS = (0, 1, 7, 2024)


def loop_ci(
    values: np.ndarray,
    rng: np.random.Generator,
    n_boot: int = 2000,
    level: float = 0.95,
) -> tuple[float, float]:
    """The per-resample loop: one ``integers(0, n, size=n)`` per resample."""
    n = values.size
    means = np.empty(n_boot)
    for i in range(n_boot):
        means[i] = values[rng.integers(0, n, size=n)].mean()
    alpha = (1.0 - level) / 2.0
    return (
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )


def sample(n: int, seed: int) -> np.ndarray:
    """Skewed, non-dyadic values, so the row sums round."""
    return np.random.default_rng(10_000 + seed).lognormal(0.0, 0.9, size=n) * 1.37


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_the_per_resample_loop(n, seed):
    values = sample(n, seed)
    block_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    assert bootstrap_ci(values, block_rng) == loop_ci(values, loop_rng)
    assert block_rng.random() == loop_rng.random()


@pytest.mark.parametrize("n_boot, level", [(1, 0.95), (37, 0.9), (500, 0.5)])
def test_matches_the_loop_at_other_settings(n_boot, level):
    values = sample(20, 3)
    block_rng = np.random.default_rng(3)
    loop_rng = np.random.default_rng(3)
    assert bootstrap_ci(values, block_rng, n_boot, level) == loop_ci(
        values, loop_rng, n_boot, level
    )
    assert block_rng.random() == loop_rng.random()


def test_single_value_draws_nothing():
    rng = np.random.default_rng(5)
    assert bootstrap_ci(np.array([4.25]), rng) == (4.25, 4.25)
    assert rng.random() == np.random.default_rng(5).random()


def test_summarize_ci_is_the_loops():
    """EXT-SPEED's path: ``summarize`` on its own default generator."""
    values = sample(20, 11)
    summary = summarize(values)
    assert (summary.ci_low, summary.ci_high) == loop_ci(
        values, np.random.default_rng(0)
    )
