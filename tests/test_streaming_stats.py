"""Property suite for the streaming aggregation layer.

The laws under test are the ones the sharded runner relies on: for
every sketch in :mod:`repro.analysis.stats`, ``merge()`` must be
*exactly* associative and commutative with a fresh instance as
identity — at the level of serialized bytes, not approximate floats —
and the streamed statistics must match an exact reference computation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import CellCounter, QuantileSketch, StreamingMoments

#: Finite, non-NaN observations of mixed magnitude and sign.
finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
float_lists = st.lists(finite_floats, min_size=0, max_size=60)
#: Strictly interior to the default sketch range [1e-3, 1e3), where the
#: one-bin rank-error bound applies (under/overflow clamp to min/max).
interior_floats = st.floats(min_value=1e-3, max_value=900.0)
cell_keys = st.sampled_from(
    ["adult/steady", "senior/tremor", "young/low-dexterity", "adult/arctic"]
)


def snapshot_bytes(aggregate) -> bytes:
    return json.dumps(aggregate.snapshot(), sort_keys=True).encode()


def moments_of(values) -> StreamingMoments:
    moments = StreamingMoments()
    for value in values:
        moments.add(value)
    return moments


def sketch_of(values) -> QuantileSketch:
    sketch = QuantileSketch()
    for value in values:
        sketch.add(value)
    return sketch


def counter_of(keys) -> CellCounter:
    counter = CellCounter()
    for key in keys:
        counter.add(key)
    return counter


@st.composite
def values_and_partition(draw, elements=finite_floats):
    """A value list plus an arbitrary ordered partition of it."""
    values = draw(st.lists(elements, min_size=0, max_size=40))
    cuts = draw(
        st.lists(
            st.integers(0, len(values)), min_size=0, max_size=6
        ).map(sorted)
    )
    bounds = [0, *cuts, len(values)]
    chunks = [
        values[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)
    ]
    return values, chunks


class TestMergeLaws:
    """Associativity, commutativity, identity — for every aggregate."""

    @given(float_lists, float_lists, float_lists)
    def test_moments_associative(self, a, b, c):
        x, y, z = moments_of(a), moments_of(b), moments_of(c)
        assert snapshot_bytes(x.merge(y).merge(z)) == snapshot_bytes(
            x.merge(y.merge(z))
        )

    @given(float_lists, float_lists)
    @example(a=[0.0], b=[-0.0])
    def test_moments_commutative(self, a, b):
        x, y = moments_of(a), moments_of(b)
        assert snapshot_bytes(x.merge(y)) == snapshot_bytes(y.merge(x))

    @given(float_lists)
    def test_moments_identity(self, a):
        x = moments_of(a)
        assert snapshot_bytes(x.merge(StreamingMoments())) == snapshot_bytes(x)
        assert snapshot_bytes(StreamingMoments().merge(x)) == snapshot_bytes(x)

    @given(float_lists, float_lists, float_lists)
    def test_sketch_associative(self, a, b, c):
        x, y, z = sketch_of(a), sketch_of(b), sketch_of(c)
        assert snapshot_bytes(x.merge(y).merge(z)) == snapshot_bytes(
            x.merge(y.merge(z))
        )

    @given(float_lists, float_lists)
    @example(a=[0.0], b=[-0.0])
    def test_sketch_commutative(self, a, b):
        x, y = sketch_of(a), sketch_of(b)
        assert snapshot_bytes(x.merge(y)) == snapshot_bytes(y.merge(x))

    @given(float_lists)
    def test_sketch_identity(self, a):
        x = sketch_of(a)
        assert snapshot_bytes(x.merge(QuantileSketch())) == snapshot_bytes(x)

    @given(st.lists(cell_keys, max_size=30), st.lists(cell_keys, max_size=30),
           st.lists(cell_keys, max_size=30))
    def test_counter_associative_commutative(self, a, b, c):
        x, y, z = counter_of(a), counter_of(b), counter_of(c)
        assert snapshot_bytes(x.merge(y).merge(z)) == snapshot_bytes(
            x.merge(y.merge(z))
        )
        assert snapshot_bytes(x.merge(y)) == snapshot_bytes(y.merge(x))
        assert snapshot_bytes(x.merge(CellCounter())) == snapshot_bytes(x)


class TestStreamingVsExact:
    """Streamed moments equal an exact rational reference computation."""

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_mean_is_correctly_rounded(self, values):
        moments = moments_of(values)
        exact = sum((Fraction(v) for v in values), Fraction(0)) / len(values)
        assert moments.mean == float(exact)
        # And therefore within an ulp or two of the fsum-based mean.
        fsum_mean = math.fsum(values) / len(values)
        tolerance = 4 * math.ulp(max(abs(fsum_mean), 1e-300))
        assert abs(moments.mean - fsum_mean) <= tolerance

    @given(st.lists(finite_floats, min_size=2, max_size=60))
    def test_variance_is_correctly_rounded(self, values):
        moments = moments_of(values)
        n = len(values)
        total = sum((Fraction(v) for v in values), Fraction(0))
        sumsq = sum((Fraction(v) ** 2 for v in values), Fraction(0))
        exact = (sumsq - total * total / n) / (n - 1)
        assert moments.variance == float(max(exact, Fraction(0)))

    @given(float_lists)
    def test_min_max_exact(self, values):
        moments = moments_of(values)
        if not values:
            assert moments.mean is None and moments.min is None
        else:
            assert moments.min == min(values)
            assert moments.max == max(values)


class TestQuantileRankError:
    """Sketch quantiles land within one bin of the empirical quantile."""

    @settings(max_examples=200)
    @given(
        st.lists(interior_floats, min_size=1, max_size=80),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_one_bin_multiplicative_bound(self, values, q):
        sketch = sketch_of(values)
        estimate = sketch.quantile(q)
        rank = max(1, math.ceil(q * len(values)))
        truth = sorted(values)[rank - 1]
        factor = 10.0 ** (1.0 / sketch.bins_per_decade)
        assert truth / factor * (1 - 1e-12) <= estimate
        assert estimate <= truth * factor * (1 + 1e-12)

    @given(st.lists(interior_floats, min_size=1, max_size=80))
    def test_extremes_are_exact(self, values):
        sketch = sketch_of(values)
        assert sketch.quantile(0.0) == pytest.approx(min(values), rel=1.2)
        # Estimates never escape the observed range.
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            estimate = sketch.quantile(q)
            assert min(values) <= estimate <= max(values)

    def test_empty_sketch_has_no_quantiles(self):
        assert QuantileSketch().quantile(0.5) is None
        assert QuantileSketch().median is None

    def test_incompatible_specs_refuse_to_merge(self):
        with pytest.raises(ValueError):
            QuantileSketch(1e-3, 1e3, 16).merge(QuantileSketch(1e-2, 1e3, 16))


class TestShardSplitInvariance:
    """Any partition of the stream merges to the same bytes."""

    @given(values_and_partition())
    def test_moments_partition_invariant(self, case):
        values, chunks = case
        whole = moments_of(values)
        parts = [moments_of(chunk) for chunk in chunks]
        merged = StreamingMoments()
        for part in parts:
            merged = merged.merge(part)
        assert snapshot_bytes(merged) == snapshot_bytes(whole)
        backwards = StreamingMoments()
        for part in reversed(parts):
            backwards = backwards.merge(part)
        assert snapshot_bytes(backwards) == snapshot_bytes(whole)

    @given(values_and_partition())
    def test_sketch_partition_invariant(self, case):
        values, chunks = case
        whole = sketch_of(values)
        merged = QuantileSketch()
        for chunk in chunks:
            merged = merged.merge(sketch_of(chunk))
        assert snapshot_bytes(merged) == snapshot_bytes(whole)

    @given(values_and_partition(elements=cell_keys))
    def test_counter_partition_invariant(self, case):
        keys, chunks = case
        whole = counter_of(keys)
        merged = CellCounter()
        for chunk in reversed(chunks):
            merged = merged.merge(counter_of(chunk))
        assert snapshot_bytes(merged) == snapshot_bytes(whole)


class TestRoundTrips:
    """snapshot()/from_snapshot() are exact inverses."""

    @given(float_lists)
    def test_moments_roundtrip(self, values):
        moments = moments_of(values)
        clone = StreamingMoments.from_snapshot(moments.snapshot())
        assert snapshot_bytes(clone) == snapshot_bytes(moments)

    @given(float_lists)
    def test_sketch_roundtrip(self, values):
        sketch = sketch_of(values)
        clone = QuantileSketch.from_snapshot(sketch.snapshot())
        assert snapshot_bytes(clone) == snapshot_bytes(sketch)

    @given(st.lists(cell_keys, max_size=30))
    def test_counter_roundtrip(self, keys):
        counter = counter_of(keys)
        clone = CellCounter.from_snapshot(counter.snapshot())
        assert snapshot_bytes(clone) == snapshot_bytes(counter)
        assert clone.total() == len(keys)


class TestNonFiniteObservations:
    """±inf is refused like NaN, leaving the aggregate untouched."""

    @pytest.mark.parametrize("cls", [StreamingMoments, QuantileSketch])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinity_rejected(self, cls, value):
        stats = cls()
        stats.add(2.5)
        before = snapshot_bytes(stats)
        with pytest.raises(ValueError, match="infinite observation"):
            stats.add(value)
        assert snapshot_bytes(stats) == before
        json.dumps(stats.snapshot(), allow_nan=False)
