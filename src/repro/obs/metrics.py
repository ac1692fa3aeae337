"""Typed metric instruments with deterministic, mergeable snapshots.

Three instrument kinds cover everything the simulation wants to count:

``Counter``
    A monotonically increasing integer (events dispatched, ADC
    conversions, plausibility rejections).
``Gauge``
    A last-value-wins sample tagged with the sim time it was taken at
    (battery voltage, queue depth).  Merging keeps the latest sample.
``Histogram``
    A fixed set of log-spaced bins (no dynamic resizing, so two shards
    that never exchanged data still agree on bin edges) plus exact
    count/sum/min/max.

Determinism rules baked into this module:

* No instrument ever reads a wall clock — times are always passed in by
  the caller and are sim times (reprolint REP001 applies here like
  everywhere else).
* Histogram sums are exact rationals.  Python floats are dyadic
  rationals, so each observation is an integer over a power of two and
  the sum accumulates as scaled integers (exposed as a
  :class:`fractions.Fraction`) — which makes :func:`merge_snapshots`
  genuinely associative **and** commutative, not just approximately
  so.  The hypothesis property tests in
  ``tests/test_obs_properties.py`` exercise exactly this.
* Snapshots are plain JSON-safe dicts with sorted keys, so serializing
  a merged snapshot is byte-identical regardless of shard arrival
  order.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Any, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "merge_snapshots",
    "SNAPSHOT_VERSION",
]

#: Version stamp embedded in observability payloads.
SNAPSHOT_VERSION = 1

#: Default histogram range: 1e-7 .. 1e3 covers everything the sim
#: observes (microsecond I2C transfers up to thousands of MCU cycles
#: is handled by per-call ranges).
_DEFAULT_LOW = 1e-7
_DEFAULT_HIGH = 1e3
_DEFAULT_BINS_PER_DECADE = 3


def _log_edges(low: float, high: float, bins_per_decade: int) -> list[float]:
    """Bin edges ``low * 10**(i / bins_per_decade)`` spanning [low, high]."""
    decades = math.log10(high / low)
    n = max(1, round(decades * bins_per_decade))
    return [low * 10.0 ** (i / bins_per_decade) for i in range(n + 1)]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be positive — counters never go down)."""
        if n <= 0:
            raise ValueError(f"counter increment must be positive, got {n}")
        self.value += n

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe state for serialization and merging."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value-wins sample tagged with the sim time it was taken."""

    __slots__ = ("name", "last")

    def __init__(self, name: str) -> None:
        self.name = name
        self.last: Optional[tuple[float, float]] = None

    def set(self, value: float, time: float) -> None:
        """Record ``value`` observed at sim ``time``."""
        self.last = (float(time), float(value))

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe state for serialization and merging."""
        last = None if self.last is None else [self.last[0], self.last[1]]
        return {"type": "gauge", "last": last}


class Histogram:
    """Fixed log-spaced bins plus exact count/sum/min/max.

    The bin layout is fully determined by ``(low, high,
    bins_per_decade)``: an underflow bin, ``round(log10(high / low) *
    bins_per_decade)`` interior bins, and an overflow bin.  Because the
    layout never adapts to the data, any two histograms with the same
    spec merge by elementwise addition.
    """

    __slots__ = (
        "name",
        "low",
        "high",
        "bins_per_decade",
        "_edges",
        "counts",
        "count",
        "_sum_num",
        "_sum_shift",
        "min",
        "max",
        "_memo_value",
        "_memo_bin",
        "_memo_scaled",
    )

    def __init__(
        self,
        name: str,
        low: float = _DEFAULT_LOW,
        high: float = _DEFAULT_HIGH,
        bins_per_decade: int = _DEFAULT_BINS_PER_DECADE,
    ) -> None:
        if not (0.0 < low < high):
            raise ValueError(f"need 0 < low < high, got {low}..{high}")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")
        self.name = name
        self.low = float(low)
        self.high = float(high)
        self.bins_per_decade = int(bins_per_decade)
        self._edges = _log_edges(self.low, self.high, self.bins_per_decade)
        # counts[0] is underflow, counts[-1] is overflow.
        self.counts = [0] * (len(self._edges) + 1)
        self.count = 0
        # Exact sum kept as _sum_num / 2**_sum_shift.  Every finite float
        # is a dyadic rational, so accumulating the integer numerator at a
        # common power-of-two scale is exactly the Fraction sum — without
        # paying Fraction's per-observe gcd normalization on the hot path.
        self._sum_num = 0
        self._sum_shift = 0
        # Single-entry memo of the last observed value's bin index and
        # numerator at the current sum scale.  Instrumented loops often
        # feed a histogram the same value every tick (modeled stage costs
        # are constants), and a repeat cannot change min/max or the sum
        # scale — so the repeat path skips the NaN check, the bisect,
        # as_integer_ratio and the rescaling.
        self._memo_value: Optional[float] = None
        self._memo_bin = 0
        self._memo_scaled = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @property
    def edges(self) -> list[float]:
        """Interior bin edges (underflow is below ``edges[0]``)."""
        return list(self._edges)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if value == self._memo_value:
            self.counts[self._memo_bin] += 1
            self.count += 1
            self._sum_num += self._memo_scaled
            return
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r}: NaN observation")
        num, den = value.as_integer_ratio()
        shift = den.bit_length() - 1
        index = bisect.bisect_right(self._edges, value)
        self.counts[index] += 1
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if shift > self._sum_shift:
            self._sum_num = (self._sum_num << (shift - self._sum_shift)) + num
            self._sum_shift = shift
            scaled = num
        else:
            scaled = num << (self._sum_shift - shift)
            self._sum_num += scaled
        self._memo_value = value
        self._memo_bin = index
        self._memo_scaled = scaled

    @property
    def sum(self) -> Fraction:
        """Exact sum of all observations as a normalized rational."""
        return Fraction(self._sum_num, 1 << self._sum_shift)

    @property
    def mean(self) -> Optional[float]:
        """Exact mean of all observations (``None`` when empty)."""
        if self.count == 0:
            return None
        return float(self.sum / self.count)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe state for serialization and merging.

        The exact sum is carried as an ``[numerator, denominator]``
        integer pair so merged snapshots stay exact through JSON.
        """
        total = self.sum
        return {
            "type": "histogram",
            "low": self.low,
            "high": self.high,
            "bins_per_decade": self.bins_per_decade,
            "counts": list(self.counts),
            "count": self.count,
            "sum": [total.numerator, total.denominator],
            "min": self.min,
            "max": self.max,
        }


class MetricRegistry:
    """Name-keyed home for all instruments of one observed run.

    Mirrors the trace-channel registry philosophy: an instrument is
    created on first use and is unique per name; asking for an existing
    name with a different instrument kind is an error (a typo'd name
    silently splitting a metric in two is the failure mode this
    prevents).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter: Counter = self._get(name, Counter, lambda: Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        gauge: Gauge = self._get(name, Gauge, lambda: Gauge(name))
        return gauge

    def histogram(
        self,
        name: str,
        low: float = _DEFAULT_LOW,
        high: float = _DEFAULT_HIGH,
        bins_per_decade: int = _DEFAULT_BINS_PER_DECADE,
    ) -> Histogram:
        """Get or create the histogram ``name``.

        The spec ``(low, high, bins_per_decade)`` applies on first use
        only; later calls get the existing instrument regardless.
        """
        histogram: Histogram = self._get(
            name,
            Histogram,
            lambda: Histogram(
                name, low=low, high=high, bins_per_decade=bins_per_decade
            ),
        )
        return histogram

    def names(self) -> list[str]:
        """Sorted names of all registered instruments."""
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Counter | Gauge | Histogram]:
        """The instrument if registered, else ``None``."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """All instruments serialized, keys sorted for stable bytes."""
        return {
            name: self._metrics[name].snapshot() for name in self.names()
        }


def _merge_entry(
    name: str, a: dict[str, Any], b: dict[str, Any]
) -> dict[str, Any]:
    if a["type"] != b["type"]:
        raise ValueError(
            f"metric {name!r}: cannot merge {a['type']} with {b['type']}"
        )
    if a["type"] == "counter":
        return {"type": "counter", "value": a["value"] + b["value"]}
    if a["type"] == "gauge":
        pairs = [
            tuple(entry["last"])
            for entry in (a, b)
            if entry["last"] is not None
        ]
        last = list(max(pairs)) if pairs else None
        return {"type": "gauge", "last": last}
    # Histogram.
    spec_a = (a["low"], a["high"], a["bins_per_decade"])
    spec_b = (b["low"], b["high"], b["bins_per_decade"])
    if spec_a != spec_b:
        raise ValueError(
            f"histogram {name!r}: incompatible bin specs "
            f"{spec_a} vs {spec_b}"
        )
    total = Fraction(a["sum"][0], a["sum"][1]) + Fraction(
        b["sum"][0], b["sum"][1]
    )
    mins = [entry["min"] for entry in (a, b) if entry["min"] is not None]
    maxes = [entry["max"] for entry in (a, b) if entry["max"] is not None]
    return {
        "type": "histogram",
        "low": a["low"],
        "high": a["high"],
        "bins_per_decade": a["bins_per_decade"],
        "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        "count": a["count"] + b["count"],
        "sum": [total.numerator, total.denominator],
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
    }


def merge_snapshots(
    a: dict[str, Any], b: dict[str, Any]
) -> dict[str, Any]:
    """Merge two registry snapshots into one.

    The merge is associative and commutative with ``{}`` as identity:
    counters add, gauges keep the sample with the greatest
    ``(time, value)``, histogram bins/counts add and exact sums add as
    rationals.  Shard order therefore cannot leak into merged results,
    which is what keeps ``--jobs 1 == --jobs N`` byte-identical.
    """
    out: dict[str, Any] = {}
    for name in sorted(set(a) | set(b)):
        entry_a, entry_b = a.get(name), b.get(name)
        if entry_a is None:
            assert entry_b is not None
            out[name] = dict(entry_b)
        elif entry_b is None:
            out[name] = dict(entry_a)
        else:
            out[name] = _merge_entry(name, entry_a, entry_b)
    return out
