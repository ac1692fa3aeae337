"""The run-scoped recorder: metrics plus nestable sim-time spans.

One :class:`Recorder` collects everything observable about one run (or
one shard of one run): a :class:`~repro.obs.metrics.MetricRegistry` and
a flat list of completed spans.  Instrumented components never hold a
recorder reference of their own — they ask :func:`active_recorder` at
construction time and cache either the real instrument or ``None``:

.. code-block:: python

    recorder = active_recorder()
    self._obs_events = (
        recorder.metrics.counter("kernel.events.dispatched")
        if recorder is not None
        else None
    )
    ...
    if self._obs_events is not None:   # ~2 ns when observability is off
        self._obs_events.inc()

By default no recorder is active and :func:`active_recorder` returns
``None`` — so every hot path reduces to a cached ``is not None`` check
and the perf gate (`repro bench --check`) sees no measurable cost.

Spans are sim-time intervals.  Nothing here reads a wall clock: span
start/end times are passed in by the caller (usually ``sim.now``, or a
modeled duration derived from MCU cycle costs for work that happens
"inside" a single tick).  :attr:`Recorder.spans` is the one span
store; :meth:`Recorder.payload` is what the runner merges and the
exporters read.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

from .metrics import (
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)

__all__ = [
    "Recorder",
    "active_recorder",
    "set_active_recorder",
    "use_recorder",
]

def _clean_attrs(attrs: Optional[dict[str, Any]]) -> dict[str, Any]:
    if not attrs:
        return {}
    if len(attrs) == 1:
        # A single-key dict is trivially sorted; skip the sort.
        return dict(attrs)
    return {key: attrs[key] for key in sorted(attrs)}


class Recorder:
    """Collects metrics and spans for one observed run."""

    def __init__(self) -> None:
        self.metrics = MetricRegistry()
        self._spans: list[dict[str, Any]] = []
        # Span sequences recorded but not yet expanded into ``_spans``:
        # (name, start, depth, attrs, children), oldest first.
        self._sequences: list[tuple[Any, ...]] = []
        self._stack: list[tuple[str, float, dict[str, Any]]] = []
        # Per-kind instrument caches for the name-keyed conveniences
        # below: the registry's _get does a dict lookup plus an
        # isinstance kind check, which shows up when a hot loop calls
        # recorder.counter()/observe() by name every tick.  The caches
        # skip both once a name has been seen; kind-mismatch errors
        # still fire on first use because the cache is per kind.
        self._counter_cache: dict[str, Counter] = {}
        self._gauge_cache: dict[str, Gauge] = {}
        self._histogram_cache: dict[str, Histogram] = {}

    # -- metric conveniences -------------------------------------------

    def counter(self, name: str, n: int = 1) -> None:
        """Increment the counter ``name`` by ``n``."""
        counter = self._counter_cache.get(name)
        if counter is None:
            counter = self.metrics.counter(name)
            self._counter_cache[name] = counter
        counter.inc(n)

    def gauge(self, name: str, value: float, time: float) -> None:
        """Set the gauge ``name`` to ``value`` at sim ``time``."""
        gauge = self._gauge_cache.get(name)
        if gauge is None:
            gauge = self.metrics.gauge(name)
            self._gauge_cache[name] = gauge
        gauge.set(value, time)

    def observe(
        self,
        name: str,
        value: float,
        low: float = 1e-7,
        high: float = 1e3,
        bins_per_decade: int = 3,
    ) -> None:
        """Record ``value`` into the histogram ``name``.

        The ``(low, high, bins_per_decade)`` spec applies on first use
        of ``name`` only, exactly as in the underlying registry.
        """
        histogram = self._histogram_cache.get(name)
        if histogram is None:
            histogram = self.metrics.histogram(
                name, low=low, high=high, bins_per_decade=bins_per_decade
            )
            self._histogram_cache[name] = histogram
        histogram.observe(value)

    # -- spans ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Current span nesting depth."""
        return len(self._stack)

    @property
    def spans(self) -> list[dict[str, Any]]:
        """Every completed span as a dict, in completion order."""
        if self._sequences:
            self._expand_sequences()
        return self._spans

    def begin_span(
        self,
        name: str,
        start: float,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        """Open a span at sim time ``start``; close with :meth:`end_span`."""
        self._stack.append((name, float(start), _clean_attrs(attrs)))

    def end_span(
        self, end: float, attrs: Optional[dict[str, Any]] = None
    ) -> None:
        """Close the innermost open span at sim time ``end``."""
        if not self._stack:
            raise RuntimeError("end_span with no open span")
        name, start, opened = self._stack.pop()
        if attrs:
            opened.update(_clean_attrs(attrs))
        self._finish(name, start, float(end), len(self._stack), opened)

    def emit_span(
        self,
        name: str,
        start: float,
        end: float,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        """Record an already-complete span (child of any open span)."""
        self._finish(
            name, float(start), float(end), len(self._stack),
            _clean_attrs(attrs),
        )

    def emit_span_sequence(
        self,
        name: str,
        start: float,
        attrs: dict[str, Any],
        children: Sequence[tuple[str, float, dict[str, Any]]],
    ) -> None:
        """Record a span and its back-to-back children in one call.

        ``children`` rows are ``(name, duration, attrs)``; child ``i``
        starts where child ``i - 1`` ended (the first at ``start``) and
        the parent ends where the last child does.  This is the per-tick
        path of a precomputed instrumentation plan: the caller supplies
        each ``attrs`` already key-sorted and promises never to mutate
        them or ``children``.  The call keeps one tuple; the span
        dicts are built from it, with the same additions, when
        :attr:`spans` is next read.  Spans and their order are
        byte-identical to ``begin_span(name, start)``, one
        :meth:`emit_span` per child, then ``end_span(end, attrs)``.
        """
        start = float(start)
        children = tuple(children)
        cursor = start
        for child, duration, _child_attrs in children:
            end = cursor + duration
            if end < cursor:
                raise ValueError(
                    f"span {child!r} ends before it starts ({end} < {cursor})"
                )
            cursor = end
        self._sequences.append((name, start, len(self._stack), attrs, children))

    def _expand_sequences(self) -> None:
        """Append the pending sequences' span dicts to ``_spans``, in order."""
        spans = self._spans
        for name, start, depth, attrs, children in self._sequences:
            cursor = start
            for child, duration, child_attrs in children:
                end = cursor + duration
                spans.append(
                    {
                        "name": child,
                        "start": cursor,
                        "end": end,
                        "depth": depth + 1,
                        "attrs": child_attrs,
                    }
                )
                cursor = end
            spans.append(
                {
                    "name": name,
                    "start": start,
                    "end": cursor,
                    "depth": depth,
                    "attrs": attrs,
                }
            )
        self._sequences.clear()

    def _finish(
        self,
        name: str,
        start: float,
        end: float,
        depth: int,
        attrs: dict[str, Any],
    ) -> None:
        if end < start:
            raise ValueError(
                f"span {name!r} ends before it starts ({end} < {start})"
            )
        record = {
            "name": name,
            "start": start,
            "end": end,
            "depth": depth,
            "attrs": attrs,
        }
        self.spans.append(record)

    @contextmanager
    def span(
        self,
        name: str,
        clock: Callable[[], float],
        **attrs: Any,
    ) -> Iterator[None]:
        """Span the enclosed block, reading sim time from ``clock``.

        ``clock`` is any zero-argument callable returning the current
        sim time — typically ``lambda: sim.now``.  It is read once on
        entry and once on exit; nothing inside may touch a wall clock.
        """
        self.begin_span(name, clock(), attrs)
        try:
            yield
        finally:
            self.end_span(clock())

    # -- snapshots ------------------------------------------------------

    def payload(self) -> dict[str, Any]:
        """The JSON-safe observability payload for one run/shard."""
        return {
            "version": SNAPSHOT_VERSION,
            "metrics": self.metrics.snapshot(),
            "spans": list(self.spans),
        }


_active: Optional[Recorder] = None


def active_recorder() -> Optional[Recorder]:
    """The recorder new components should report to, or ``None``.

    ``None`` means observability is off (the default).  Components read
    this once at construction and cache the result; swapping the active
    recorder mid-run is deliberately unsupported.
    """
    return _active


def set_active_recorder(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Install ``recorder`` as active; returns the previous one."""
    global _active
    previous = _active
    _active = recorder
    return previous


@contextmanager
def use_recorder(recorder: Optional[Recorder]) -> Iterator[None]:
    """Make ``recorder`` active for the enclosed block.

    This is how an observed run is delimited: build the components
    inside the block so they bind to the recorder at construction.
    """
    previous = set_active_recorder(recorder)
    try:
        yield
    finally:
        set_active_recorder(previous)
