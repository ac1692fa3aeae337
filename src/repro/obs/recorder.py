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
        if recorder.enabled
        else None
    )
    ...
    if self._obs_events is not None:   # ~2 ns when observability is off
        self._obs_events.inc()

The default active recorder is :data:`NULL_RECORDER`, whose ``enabled``
flag is ``False`` — so by default every hot path reduces to a cached
``is not None`` check and the perf gate (`repro bench --check`) sees no
measurable cost.

Spans are sim-time intervals.  Nothing here reads a wall clock: span
start/end times are passed in by the caller (usually ``sim.now``, or a
modeled duration derived from MCU cycle costs for work that happens
"inside" a single tick).  Completed spans are mirrored onto the
registered ``SPANS`` trace channel when a tracer is attached, so the
existing trace-determinism tests cover them too.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.sim import channels
from repro.sim.trace import Tracer

from .metrics import (
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "active_recorder",
    "set_active_recorder",
    "use_recorder",
    "span",
]

def _clean_attrs(attrs: Optional[dict[str, Any]]) -> dict[str, Any]:
    if not attrs:
        return {}
    if len(attrs) == 1:
        # A single-key dict is trivially sorted; skip the sort.
        return dict(attrs)
    return {key: attrs[key] for key in sorted(attrs)}


def _sequence_records(
    name: str,
    start: float,
    depth: int,
    _attrs: dict[str, Any],
    attr_items: tuple[tuple[str, Any], ...],
    children: tuple[
        tuple[str, float, dict[str, Any], tuple[tuple[str, Any], ...]], ...
    ],
) -> tuple[list[float], list[tuple[str, float, int, tuple[tuple[str, Any], ...]]]]:
    """The ``spans`` channel records of one :meth:`Recorder.emit_span_sequence`.

    Children first, each as ``_finish`` records a span, then the parent.
    """
    times: list[float] = []
    values: list[tuple[str, float, int, tuple[tuple[str, Any], ...]]] = []
    cursor = start
    for child, duration, _child_attrs, child_items in children:
        end = cursor + duration
        times.append(cursor)
        values.append((child, end, depth + 1, child_items))
        cursor = end
    times.append(start)
    values.append((name, cursor, depth, attr_items))
    return times, values


class Recorder:
    """Collects metrics and spans for one observed run.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.sim.trace.Tracer` to mirror completed
        spans onto (channel ``spans``).  A device run attaches its own
        tracer via :meth:`attach_tracer` so spans ride the existing
        trace serialization.
    """

    enabled = True

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.metrics = MetricRegistry()
        self._spans: list[dict[str, Any]] = []
        # Span sequences recorded but not yet expanded into ``_spans``:
        # (name, start, depth, attrs, attr_items, children), oldest first.
        self._sequences: list[tuple[Any, ...]] = []
        self._stack: list[tuple[str, float, dict[str, Any]]] = []
        self._tracer = tracer
        # Per-kind instrument caches for the name-keyed conveniences
        # below: the registry's _get does a dict lookup plus an
        # isinstance kind check, which shows up when a hot loop calls
        # recorder.counter()/observe() by name every tick.  The caches
        # skip both once a name has been seen; kind-mismatch errors
        # still fire on first use because the cache is per kind.
        self._counter_cache: dict[str, Counter] = {}
        self._gauge_cache: dict[str, Gauge] = {}
        self._histogram_cache: dict[str, Histogram] = {}

    # -- wiring ---------------------------------------------------------

    def attach_tracer(self, tracer: Tracer) -> None:
        """Mirror completed spans onto ``tracer``'s ``spans`` channel."""
        self._tracer = tracer

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
        attr_items: tuple[tuple[str, Any], ...],
        children: Sequence[
            tuple[str, float, dict[str, Any], tuple[tuple[str, Any], ...]]
        ],
    ) -> None:
        """Record a span and its back-to-back children in one call.

        ``children`` rows are ``(name, duration, attrs, attr_items)``;
        child ``i`` starts where child ``i - 1`` ended (the first at
        ``start``) and the parent ends where the last child does.  This
        is the per-tick path of a precomputed instrumentation plan: the
        caller supplies each ``attrs`` already key-sorted plus its
        ``tuple(sorted(attrs.items()))`` form and promises never to
        mutate them or ``children``.  The call keeps one tuple; the span
        dicts and the tracer's ``spans`` records are built from it, with
        the same additions, when :attr:`spans` or the channel is next
        read.  Spans, tracer records and their order are byte-identical
        to ``begin_span(name, start)``, one :meth:`emit_span` per child,
        then ``end_span(end, attrs)``.
        """
        start = float(start)
        children = tuple(children)
        cursor = start
        for child, duration, _child_attrs, _child_items in children:
            end = cursor + duration
            if end < cursor:
                raise ValueError(
                    f"span {child!r} ends before it starts ({end} < {cursor})"
                )
            cursor = end
        sequence = (name, start, len(self._stack), attrs, attr_items, children)
        self._sequences.append(sequence)
        if self._tracer is not None:
            self._tracer.record_deferred(
                channels.SPANS, _sequence_records, sequence
            )

    def _expand_sequences(self) -> None:
        """Append the pending sequences' span dicts to ``_spans``, in order."""
        spans = self._spans
        for name, start, depth, attrs, _items, children in self._sequences:
            cursor = start
            for child, duration, child_attrs, _child_items in children:
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
        if self._tracer is not None:
            self._tracer.record(
                channels.SPANS,
                start,
                (name, end, depth, tuple(sorted(attrs.items()))),
            )

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

    def record_snapshot(self, tracer: Tracer, time: float) -> None:
        """Publish the full metric snapshot on the ``metrics`` channel."""
        tracer.record(channels.METRICS, time, self.metrics.snapshot())

    def payload(self) -> dict[str, Any]:
        """The JSON-safe observability payload for one run/shard."""
        return {
            "version": SNAPSHOT_VERSION,
            "metrics": self.metrics.snapshot(),
            "spans": list(self.spans),
        }


class NullRecorder:
    """The default, disabled recorder: every operation is a no-op.

    ``enabled`` is ``False`` so instrumented components cache ``None``
    instead of instruments and skip all bookkeeping; the no-op methods
    below exist so code that *does* hold a recorder reference (e.g. a
    context manager built before the check) still works.
    """

    enabled = False
    metrics: Optional[MetricRegistry] = None
    spans: list[dict[str, Any]] = []

    def attach_tracer(self, tracer: Tracer) -> None:
        """No-op."""

    def counter(self, name: str, n: int = 1) -> None:
        """No-op."""

    def gauge(self, name: str, value: float, time: float) -> None:
        """No-op."""

    def observe(
        self,
        name: str,
        value: float,
        low: float = 1e-7,
        high: float = 1e3,
        bins_per_decade: int = 3,
    ) -> None:
        """No-op."""

    def begin_span(
        self,
        name: str,
        start: float,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        """No-op."""

    def end_span(
        self, end: float, attrs: Optional[dict[str, Any]] = None
    ) -> None:
        """No-op."""

    def emit_span(
        self,
        name: str,
        start: float,
        end: float,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        """No-op."""

    def emit_span_sequence(
        self,
        name: str,
        start: float,
        attrs: dict[str, Any],
        attr_items: tuple[tuple[str, Any], ...],
        children: Sequence[
            tuple[str, float, dict[str, Any], tuple[tuple[str, Any], ...]]
        ],
    ) -> None:
        """No-op."""

    @contextmanager
    def span(
        self,
        name: str,
        clock: Callable[[], float],
        **attrs: Any,
    ) -> Iterator[None]:
        """No-op context manager (does not even read the clock)."""
        yield

    def record_snapshot(self, tracer: Tracer, time: float) -> None:
        """No-op."""


#: The process-wide default recorder (observability off).
NULL_RECORDER = NullRecorder()

_active: Recorder | NullRecorder = NULL_RECORDER


def active_recorder() -> Recorder | NullRecorder:
    """The recorder new components should report to.

    Components read this once at construction and cache the result (or
    ``None`` when disabled); swapping the active recorder mid-run is
    deliberately unsupported.
    """
    return _active


def set_active_recorder(
    recorder: Recorder | NullRecorder,
) -> Recorder | NullRecorder:
    """Install ``recorder`` as active; returns the previous one."""
    global _active
    previous = _active
    _active = recorder
    return previous


@contextmanager
def use_recorder(recorder: Recorder | NullRecorder) -> Iterator[None]:
    """Make ``recorder`` active for the enclosed block.

    This is how an observed run is delimited: build the components
    inside the block so they bind to the recorder at construction.
    """
    previous = set_active_recorder(recorder)
    try:
        yield
    finally:
        set_active_recorder(previous)


@contextmanager
def span(
    name: str, clock: Callable[[], float], **attrs: Any
) -> Iterator[None]:
    """``with obs.span("firmware.tick", lambda: sim.now):`` convenience.

    Delegates to the *currently* active recorder; a no-op when
    observability is off.
    """
    with active_recorder().span(name, clock, **attrs):
        yield
