"""Small statistics toolkit for the experiment harness.

Bootstrap confidence intervals and summary rows — enough to print the
paper-style result tables without dragging in a stats framework — plus
the **streaming aggregation layer** the population-scale user studies
run on: online mean/variance, a mergeable fixed-bin quantile sketch and
string-keyed cell counters, each holding O(1) state per metric no
matter how many observations flow through.

Determinism contract (shared with :mod:`repro.obs.metrics`): every
aggregate's ``merge()`` is **exactly** associative and commutative with
the freshly-constructed instance as identity.  Sums are carried as
:class:`fractions.Fraction` — floats are dyadic rationals, so rational
accumulation is exact and the merged result is byte-identical for any
partition of the input across shards.  That is what keeps
``repro run STUDY1 --users N --jobs 1`` equal to ``--jobs N`` to the
byte.  The hypothesis property suite in
``tests/test_streaming_stats.py`` exercises exactly these laws.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import numpy as np

__all__ = [
    "Summary",
    "summarize",
    "bootstrap_ci",
    "linear_regression",
    "StreamingMoments",
    "QuantileSketch",
    "CellCounter",
]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one measured series."""

    n: int
    mean: float
    std: float
    median: float
    ci_low: float
    ci_high: float

    def row(self, label: str, unit: str = "") -> str:
        """Format as a fixed-width results-table row."""
        return (
            f"{label:<28} n={self.n:<4d} mean={self.mean:8.3f}{unit} "
            f"sd={self.std:7.3f} median={self.median:8.3f} "
            f"95%CI=[{self.ci_low:.3f}, {self.ci_high:.3f}]"
        )


def bootstrap_ci(
    values: np.ndarray,
    rng: np.random.Generator,
    n_boot: int = 2000,
    level: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if np.isnan(values).any():
        raise ValueError("cannot bootstrap a sample containing NaN")
    if values.size == 1:
        return float(values[0]), float(values[0])
    means = np.empty(n_boot)
    n = values.size
    for i in range(n_boot):
        means[i] = values[rng.integers(0, n, size=n)].mean()
    alpha = (1.0 - level) / 2.0
    return (
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )


def summarize(
    values: np.ndarray, rng: np.random.Generator | None = None
) -> Summary:
    """Summary statistics with a bootstrap CI (seeded rng optional)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if np.isnan(values).any():
        raise ValueError("cannot summarize a sample containing NaN")
    if rng is None:
        rng = np.random.default_rng(0)
    low, high = bootstrap_ci(values, rng)
    return Summary(
        n=int(values.size),
        mean=float(values.mean()),
        std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
        median=float(np.median(values)),
        ci_low=low,
        ci_high=high,
    )


def linear_regression(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Ordinary least squares ``y = intercept + slope*x``; returns
    ``(intercept, slope, r2)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    design = np.column_stack([np.ones_like(x), x])
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    predicted = design @ coeffs
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coeffs[0]), float(coeffs[1]), r2


# ---------------------------------------------------------------------------
# streaming aggregates (population-scale studies)
# ---------------------------------------------------------------------------


def _canonical_zero(value: Optional[float]) -> Optional[float]:
    """A stored extreme as ``add`` stores it: -0.0 becomes 0.0."""
    return None if value is None else value + 0.0


class StreamingMoments:
    """Online mean/variance with O(1) state and an exactly mergeable sum.

    The classic Welford recurrence updates ``(n, mean, M2)`` in floats,
    but float Welford merges are only *approximately* associative —
    shard order would leak into the merged bytes.  This implementation
    keeps the same one-pass streaming interface while carrying ``Σx``
    and ``Σx²`` exactly, so :meth:`merge` is exactly associative and
    commutative and the reported mean/variance are the correctly-rounded
    true values.

    Exact sums are stored in adaptive fixed point: every finite double
    is ``n / 2**k``, so ``Σx`` is an integer at scale ``2**shift`` where
    ``shift`` is the largest ``k`` seen (rescaling the running integer
    when a finer value arrives).  Same arithmetic as Fraction sums, but
    ~100x cheaper per fold: ordinary data keeps the integers near
    double-mantissa size and skips Fraction's per-operation gcd.  The
    internal shift never leaks — :meth:`snapshot` normalizes through
    :class:`fractions.Fraction`, so equal aggregates serialize to equal
    bytes regardless of fold order.
    """

    __slots__ = (
        "count",
        "_sum_fp",
        "_shift",
        "_sumsq_fp",
        "_sq_shift",
        "min",
        "max",
    )

    def __init__(self) -> None:
        self.count = 0
        self._sum_fp = 0
        self._shift = 0
        self._sumsq_fp = 0
        self._sq_shift = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        """Fold one observation into the running moments."""
        value = float(value)
        if not math.isfinite(value):
            kind = "NaN" if value != value else "infinite"
            raise ValueError(f"StreamingMoments: {kind} observation")
        numerator, denominator = value.as_integer_ratio()
        scale = denominator.bit_length() - 1
        self.count += 1
        shift = self._shift
        if scale > shift:
            self._sum_fp = (self._sum_fp << (scale - shift)) + numerator
            self._shift = scale
        else:
            self._sum_fp += numerator << (shift - scale)
        sq_scale = 2 * scale
        sq_shift = self._sq_shift
        if sq_scale > sq_shift:
            self._sumsq_fp = (
                self._sumsq_fp << (sq_scale - sq_shift)
            ) + numerator * numerator
            self._sq_shift = sq_scale
        else:
            self._sumsq_fp += (numerator * numerator) << (sq_shift - sq_scale)
        # min()/max() keep the incumbent on ties; so do these tests.  An
        # extreme is stored with ``+ 0.0``, which turns -0.0 into 0.0, so
        # a merge of 0.0 with -0.0 gives the same bytes in either order.
        if self.min is None:
            self.min = self.max = value + 0.0
        elif value < self.min:
            self.min = value + 0.0
        elif value > self.max:
            self.max = value + 0.0

    @property
    def _sum(self) -> Fraction:
        """Exact ``Σx`` as a normalized rational."""
        return Fraction(self._sum_fp, 1 << self._shift)

    @property
    def _sumsq(self) -> Fraction:
        """Exact ``Σx²`` as a normalized rational."""
        return Fraction(self._sumsq_fp, 1 << self._sq_shift)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combined moments of both inputs (neither operand mutated)."""
        merged = StreamingMoments()
        merged.count = self.count + other.count
        merged._shift = max(self._shift, other._shift)
        merged._sum_fp = (
            self._sum_fp << (merged._shift - self._shift)
        ) + (other._sum_fp << (merged._shift - other._shift))
        merged._sq_shift = max(self._sq_shift, other._sq_shift)
        merged._sumsq_fp = (
            self._sumsq_fp << (merged._sq_shift - self._sq_shift)
        ) + (other._sumsq_fp << (merged._sq_shift - other._sq_shift))
        mins = [m for m in (self.min, other.min) if m is not None]
        maxes = [m for m in (self.max, other.max) if m is not None]
        merged.min = min(mins) if mins else None
        merged.max = max(maxes) if maxes else None
        return merged

    @property
    def mean(self) -> Optional[float]:
        """Correctly rounded mean (``None`` when empty)."""
        if self.count == 0:
            return None
        return float(self._sum / self.count)

    @property
    def variance(self) -> Optional[float]:
        """Sample variance (``ddof=1``); ``None`` below two samples."""
        if self.count < 2:
            return None
        exact = (self._sumsq - self._sum * self._sum / self.count) / (
            self.count - 1
        )
        # Exact rational arithmetic cannot go negative, but be explicit.
        return float(max(exact, Fraction(0)))

    @property
    def std(self) -> Optional[float]:
        """Sample standard deviation (``ddof=1``)."""
        variance = self.variance
        return None if variance is None else math.sqrt(variance)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe state; exact sums as integer pairs."""
        return {
            "type": "moments",
            "count": self.count,
            "sum": [self._sum.numerator, self._sum.denominator],
            "sumsq": [self._sumsq.numerator, self._sumsq.denominator],
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_snapshot(cls, payload: dict[str, Any]) -> "StreamingMoments":
        """Inverse of :meth:`snapshot`."""
        moments = cls()
        moments.count = int(payload["count"])
        total = Fraction(*payload["sum"])
        sumsq = Fraction(*payload["sumsq"])
        for denominator in (total.denominator, sumsq.denominator):
            if denominator & (denominator - 1):
                raise ValueError(
                    f"snapshot sum denominator {denominator} is not a "
                    "power of two"
                )
        moments._sum_fp = total.numerator
        moments._shift = total.denominator.bit_length() - 1
        moments._sumsq_fp = sumsq.numerator
        moments._sq_shift = sumsq.denominator.bit_length() - 1
        moments.min = _canonical_zero(payload["min"])
        moments.max = _canonical_zero(payload["max"])
        return moments


class QuantileSketch:
    """Mergeable fixed-bin quantile sketch for positive metrics.

    Uses the same log-spaced bin layout as
    :class:`repro.obs.metrics.Histogram` — ``(low, high,
    bins_per_decade)`` fully determine the edges, so two sketches that
    never exchanged data merge by elementwise addition, which is
    exactly associative and commutative.  Quantile estimates return the
    geometric midpoint of the bin holding the requested rank, clamped
    to the exact observed ``[min, max]``: for data inside ``[low,
    high)`` the estimate is within one bin of the true empirical
    quantile, i.e. within a multiplicative factor of
    ``10**(1/bins_per_decade)``.
    """

    __slots__ = (
        "low",
        "high",
        "bins_per_decade",
        "_edges",
        "counts",
        "count",
        "min",
        "max",
    )

    def __init__(
        self,
        low: float = 1e-3,
        high: float = 1e3,
        bins_per_decade: int = 16,
    ) -> None:
        if not (0.0 < low < high):
            raise ValueError(f"need 0 < low < high, got {low}..{high}")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")
        self.low = float(low)
        self.high = float(high)
        self.bins_per_decade = int(bins_per_decade)
        decades = math.log10(self.high / self.low)
        n = max(1, round(decades * self.bins_per_decade))
        self._edges = [
            self.low * 10.0 ** (i / self.bins_per_decade)
            for i in range(n + 1)
        ]
        # counts[0] is underflow, counts[-1] is overflow.
        self.counts = [0] * (len(self._edges) + 1)
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def spec(self) -> tuple[float, float, int]:
        """The bin layout key two sketches must share to merge."""
        return (self.low, self.high, self.bins_per_decade)

    def add(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if not math.isfinite(value):
            kind = "NaN" if value != value else "infinite"
            raise ValueError(f"QuantileSketch: {kind} observation")
        self.counts[bisect.bisect_right(self._edges, value)] += 1
        self.count += 1
        # min()/max() keep the incumbent on ties; so do these tests.  An
        # extreme is stored with ``+ 0.0``, which turns -0.0 into 0.0, so
        # a merge of 0.0 with -0.0 gives the same bytes in either order.
        if self.min is None:
            self.min = self.max = value + 0.0
        elif value < self.min:
            self.min = value + 0.0
        elif value > self.max:
            self.max = value + 0.0

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Combined sketch (bin specs must match; operands unchanged)."""
        if self.spec() != other.spec():
            raise ValueError(
                f"incompatible sketch specs {self.spec()} vs {other.spec()}"
            )
        merged = QuantileSketch(self.low, self.high, self.bins_per_decade)
        merged.counts = [x + y for x, y in zip(self.counts, other.counts)]
        merged.count = self.count + other.count
        mins = [m for m in (self.min, other.min) if m is not None]
        maxes = [m for m in (self.max, other.max) if m is not None]
        merged.min = min(mins) if mins else None
        merged.max = max(maxes) if maxes else None
        return merged

    def quantile(self, q: float) -> Optional[float]:
        """Estimate of the empirical ``q``-quantile (``None`` if empty).

        Walks the cumulative bin counts to the bin holding rank
        ``ceil(q * count)`` and returns its geometric midpoint clamped
        to the exact ``[min, max]``; underflow and overflow ranks
        return the exact ``min`` / ``max``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        assert self.min is not None and self.max is not None
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bin_count in enumerate(self.counts):
            cumulative += bin_count
            if cumulative >= rank:
                if index == 0:
                    return self.min
                if index == len(self.counts) - 1:
                    return self.max
                midpoint = math.sqrt(
                    self._edges[index - 1] * self._edges[index]
                )
                return min(max(midpoint, self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to count

    @property
    def median(self) -> Optional[float]:
        """Shorthand for ``quantile(0.5)``."""
        return self.quantile(0.5)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe state for serialization and byte-comparison."""
        return {
            "type": "quantile_sketch",
            "low": self.low,
            "high": self.high,
            "bins_per_decade": self.bins_per_decade,
            "counts": list(self.counts),
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_snapshot(cls, payload: dict[str, Any]) -> "QuantileSketch":
        """Inverse of :meth:`snapshot`."""
        sketch = cls(
            payload["low"], payload["high"], payload["bins_per_decade"]
        )
        sketch.counts = list(payload["counts"])
        sketch.count = int(payload["count"])
        sketch.min = _canonical_zero(payload["min"])
        sketch.max = _canonical_zero(payload["max"])
        return sketch


class CellCounter:
    """String-keyed integer counters with additive merge.

    Backs the per-persona-cell tallies of the population studies: keys
    are persona cell labels (``"senior/left/arctic/tremor/low-vision"``)
    and values only ever increase.  Snapshots sort keys so serialized
    merged counters are byte-identical regardless of arrival order.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        """Add ``n`` (positive) to ``key``."""
        if n <= 0:
            raise ValueError(f"cell increment must be positive, got {n}")
        self._counts[key] = self._counts.get(key, 0) + n

    def get(self, key: str) -> int:
        """Current count for ``key`` (0 when never seen)."""
        return self._counts.get(key, 0)

    def total(self) -> int:
        """Sum over all cells."""
        # reprolint: allow REP007 (sums int cell counts, which is exact in any order)
        return sum(self._counts.values())

    def keys(self) -> list[str]:
        """Sorted cell keys."""
        return sorted(self._counts)

    def merge(self, other: "CellCounter") -> "CellCounter":
        """Elementwise-added counters (operands unchanged)."""
        merged = CellCounter()
        for source in (self, other):
            for key, value in source._counts.items():
                merged._counts[key] = merged._counts.get(key, 0) + value
        return merged

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe state, keys sorted for stable bytes."""
        return {
            "type": "cells",
            "counts": {key: self._counts[key] for key in sorted(self._counts)},
        }

    @classmethod
    def from_snapshot(cls, payload: dict[str, Any]) -> "CellCounter":
        """Inverse of :meth:`snapshot`."""
        counter = cls()
        counter._counts = dict(payload["counts"])
        return counter
