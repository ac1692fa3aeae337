"""Deterministic sim-time observability: metrics, spans, exporters.

``repro.obs`` answers "where does sim time go and how often does X
happen?" without perturbing the simulation: every instrument is fed
sim-time values only (no wall clock — reprolint REP001 holds here),
snapshots merge associatively/commutatively across runner shards so
``--jobs 1 == --jobs N`` stays byte-identical, and the whole layer is
off by default: with no :class:`Recorder` active,
:func:`active_recorder` returns ``None`` and instrumented components
cache ``None`` in place of their instruments, a cost the perf gate
bounds.

Typical use::

    from repro.obs import Recorder, use_recorder, to_chrome_trace

    recorder = Recorder()
    with use_recorder(recorder):
        device = DistScroll(menu, seed=7)   # components bind at build
        device.run_for(1.0)
    trace_json = to_chrome_trace(recorder.payload())

See ``docs/OBSERVABILITY.md`` for the instrument taxonomy, span naming
conventions, and a worked Perfetto walkthrough.
"""

from __future__ import annotations

from .export import (
    format_metrics,
    format_spans,
    metric_summaries,
    to_chrome_trace,
    to_jsonl,
)
from .metrics import (
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    merge_snapshots,
)
from .recorder import (
    Recorder,
    active_recorder,
    set_active_recorder,
    use_recorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "merge_snapshots",
    "SNAPSHOT_VERSION",
    "Recorder",
    "active_recorder",
    "set_active_recorder",
    "use_recorder",
    "to_chrome_trace",
    "to_jsonl",
    "format_metrics",
    "format_spans",
    "metric_summaries",
]
