"""Host-time spans around the program's layers, recorded from outside.

The traced run wraps public callables of each layer (and the callbacks
handed to the kernel's public ``PeriodicTask``) with span recorders.
Nothing inside ``src/`` changes: :func:`instrument` patches attributes
and :meth:`Patches.restore` puts every one of them back.  A wrapper only
reads the host clock, so no RNG stream or float sequence of the program
is touched and the traced outputs must equal the untraced ones.

Spans are kept in memory in parallel arrays (name, start, end, parent)
and turned into per-layer self times, counts and a Chrome trace-event
JSON document (the format ``repro trace`` emits; it opens in Perfetto)
when the run ends.  A span's *layer* is its name up to the first ``:``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Any, Callable, Iterable, Optional

#: Layers of the DistScroll closed loop (sensor -> ADC -> firmware ->
#: display, driven by the kernel and the simulated hand and user).
DEVICE_STACK = (
    "sim.kernel",
    "core.firmware",
    "hardware.adc",
    "sensors.gp2d120",
    "signal.filters",
    "core.islands",
    "core.device",
    "hardware.i2c",
    "interaction.hand",
    "interaction.user",
)


class SpanLog:
    """Spans in memory: parallel arrays of name id, start, end, parent.

    A span's parent is the span open when it started (``-1`` for a root),
    so parents always have lower indices than their children.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        #: Free-form counters maintained by special wrappers.
        self.counters: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span directly (tests build span trees so)."""
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        nid = self.intern(name)
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, stack = self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.perfbench_span = name  # type: ignore[attr-defined]
        return traced


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------
class Patches:
    """Attribute replacements that can all be undone.

    An attribute a class only inherited is deleted again on restore
    (rather than pinned onto the subclass), so ``vars(owner)`` after
    :meth:`restore` equals ``vars(owner)`` before the first patch.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, own, original))
        setattr(owner, attr, new)

    def targets(self) -> list[tuple[Any, str, bool, Any]]:
        """``(owner, attr, owned, original)`` for every patch, in order."""
        return list(self._saved)

    def restore(self) -> None:
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def _bindings(function: Callable) -> list[Any]:
    """Every loaded ``repro`` module that binds ``function`` by its name.

    A function imported by name into another module is looked up there,
    so it has to be wrapped there too.
    """
    name = function.__name__
    return [
        module
        for module_name, module in sorted(sys.modules.items())
        if module is not None
        and (module_name == "repro" or module_name.startswith("repro."))
        and vars(module).get(name) is function
    ]


def _layer_of_module(module: str) -> str:
    return module[len("repro."):] if module.startswith("repro.") else module


def instrument(log: SpanLog) -> Patches:
    """Wrap every traced layer's public callables; returns the patches.

    Imports the program's modules, so the caller must put ``src`` on the
    path first.  Call :meth:`Patches.restore` to undo.
    """
    from repro.analysis.stats import QuantileSketch, StreamingMoments
    from repro.baselines import ALL_TECHNIQUES
    from repro.core.batch import DeviceBatch
    from repro.core.device import DistScroll
    from repro.core.firmware import Firmware
    from repro.core.islands import IslandMap, build_island_map
    from repro.experiments import user_study
    from repro.hardware.adc import ADC
    from repro.hardware.i2c import I2CBus
    from repro.interaction.hand import Hand
    from repro.interaction.personas import persona_for_user
    from repro.interaction.user import SimulatedUser
    from repro.sensors.gp2d120 import GP2D120
    from repro.signal import filters
    from repro.sim import kernel

    patches = Patches()

    def method(cls: type, attr: str, name: str) -> None:
        patches.replace(cls, attr, log.wrap(getattr(cls, attr), name))

    def function(fn: Callable, name: str) -> None:
        traced = log.wrap(fn, name)
        for module in _bindings(fn):
            patches.replace(module, fn.__name__, traced)

    for attr in ("run_until", "run_while", "run"):
        method(kernel.Simulator, attr, f"sim.kernel:{attr}")
    method(ADC, "sample", "hardware.adc:sample")
    method(GP2D120, "output_voltage", "sensors.gp2d120:read")
    for cls in vars(filters).values():
        if (isinstance(cls, type) and cls.__module__ == filters.__name__
                and "update" in vars(cls)):
            method(cls, "update", "signal.filters:update")
    method(IslandMap, "lookup", "core.islands:lookup")
    function(build_island_map, "core.islands:build")
    method(DistScroll, "__init__", "core.device:build")
    method(I2CBus, "write", "hardware.i2c:write")
    method(SimulatedUser, "select_entry", "interaction.user:trial")
    function(persona_for_user, "interaction.personas:derive")
    function(user_study.simulate_user_fast, "experiments.user_study:user")
    for cls in (StreamingMoments, QuantileSketch):
        method(cls, "add", "analysis.stats:add")
        method(cls, "merge", "analysis.stats:merge")
    method(DeviceBatch, "step", "core.batch:step")

    events = kernel.global_events_processed
    for key, cls in sorted(ALL_TECHNIQUES.items()):
        if "select" not in vars(cls):
            continue
        traced = log.wrap(vars(cls)["select"], f"baselines:{key}")
        if key == "distscroll":
            traced = _counting_events(traced, log, events)
        patches.replace(cls, "select", traced)

    # Firmware ticks and hand updates are private methods the kernel
    # dispatches through the public PeriodicTask: wrap the callback at
    # the point it is handed over, attributed to the module owning it.
    original_init = kernel.PeriodicTask.__init__

    def callback_name(callback: Callable) -> str:
        owner = getattr(callback, "__self__", None)
        label = getattr(callback, "__name__", "callback").lstrip("_")
        if isinstance(owner, Firmware):
            return f"core.firmware:{label}"
        if isinstance(owner, Hand):
            return f"interaction.hand:{label}"
        module = type(owner).__module__ if owner is not None else getattr(
            callback, "__module__", "?"
        )
        return f"{_layer_of_module(module)}:{label}"

    @functools.wraps(original_init)
    def periodic_init(
        task: Any, sim: Any, period: float, callback: Callable,
        *args: Any, **kwargs: Any,
    ) -> None:
        traced = log.wrap(callback, callback_name(callback))
        original_init(task, sim, period, traced, *args, **kwargs)

    patches.replace(kernel.PeriodicTask, "__init__", periodic_init)
    return patches


def _counting_events(
    traced: Callable, log: SpanLog, events: Callable[[], int]
) -> Callable:
    """Add the kernel events a DistScroll trial dispatched to a counter."""

    @functools.wraps(traced)
    def counted(*args: Any, **kwargs: Any) -> Any:
        before = events()
        try:
            return traced(*args, **kwargs)
        finally:
            log.counters["distscroll.events"] = (
                log.counters.get("distscroll.events", 0) + events() - before
            )

    return counted


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def layer_of(name: str) -> str:
    return name.partition(":")[0]


def self_times(log: SpanLog) -> array:
    """Each span's duration minus the durations of its direct children."""
    own = array("d", (end - start for start, end in zip(log.start, log.end)))
    for index, parent in enumerate(log.parent):
        if parent >= 0:
            own[parent] -= log.end[index] - log.start[index]
    return own


#: Span names whose individual durations feed percentile metrics.
PERCENTILE_NAMES = ("baselines:distscroll", "experiments.user_study:user")


def summarize(log: SpanLog, wall_s: float) -> dict[str, Any]:
    """Per-name and per-layer aggregates of a finished span log.

    Returns ``{"names": {name: {"count", "total_s", "self_s",
    "durations"}}, "layers": {layer: self_s}, "unattributed_s",
    "wall_s"}``; ``durations`` is filled for :data:`PERCENTILE_NAMES`
    only.  Layer self times plus ``unattributed_s`` add up to ``wall_s``
    (the wall time of the traced region).
    """
    own = self_times(log)
    names: dict[str, dict[str, Any]] = {
        name: {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        for name in log.names
    }
    keep = {log.intern(name) for name in PERCENTILE_NAMES if name in names}
    roots_s = 0.0
    for index, nid in enumerate(log.name_id):
        entry = names[log.names[nid]]
        duration = log.end[index] - log.start[index]
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += own[index]
        if nid in keep:
            entry["durations"].append(duration)
        if log.parent[index] < 0:
            roots_s += duration
    layers: dict[str, float] = {}
    for name, entry in names.items():
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return {
        "names": names,
        "layers": dict(sorted(layers.items())),
        "unattributed_s": wall_s - roots_s,
        "wall_s": wall_s,
    }


def quantile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def layer_metrics(
    summary: dict[str, Any], counters: dict[str, float], events: int
) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from a span summary."""
    names = summary["names"]
    layers = summary["layers"]

    def count(*keys: str) -> int:
        return sum(names[k]["count"] for k in keys if k in names)

    def total(*keys: str) -> float:
        return sum(names[k]["total_s"] for k in keys if k in names)

    def durations(key: str) -> list[float]:
        return names[key]["durations"] if key in names else []

    def prefixed(prefix: str) -> list[str]:
        return [k for k in names if k.startswith(prefix)]

    kernel_calls = prefixed("sim.kernel:")
    ticks = count("core.firmware:tick")
    technique_keys = prefixed("baselines:")
    other_keys = [k for k in technique_keys if k != "baselines:distscroll"]
    ds_trials = count("baselines:distscroll")
    all_select = total(*technique_keys)
    wall = summary["wall_s"]
    stack = sum(layers.get(layer, 0.0) for layer in DEVICE_STACK)
    return {
        "sim.kernel.events": events,
        "sim.kernel.run_until_calls": count("sim.kernel:run_until"),
        "sim.kernel.self_s": layers.get("sim.kernel", 0.0),
        "sim.kernel.us_per_event": (
            1e6 * total(*kernel_calls) / events if events else 0.0
        ),
        "core.firmware.ticks": ticks,
        "core.firmware.self_s": layers.get("core.firmware", 0.0),
        "core.firmware.us_per_tick": (
            1e6 * total("core.firmware:tick") / ticks if ticks else 0.0
        ),
        "hardware.adc.samples": count("hardware.adc:sample"),
        "hardware.adc.self_s": layers.get("hardware.adc", 0.0),
        "sensors.gp2d120.reads": count("sensors.gp2d120:read"),
        "sensors.gp2d120.self_s": layers.get("sensors.gp2d120", 0.0),
        "signal.filters.updates": count("signal.filters:update"),
        "signal.filters.self_s": layers.get("signal.filters", 0.0),
        "core.islands.lookups": count("core.islands:lookup"),
        "core.islands.lookup_s": total("core.islands:lookup"),
        "core.islands.builds": count("core.islands:build"),
        "core.islands.build_s": total("core.islands:build"),
        "core.device.builds": count("core.device:build"),
        "core.device.build_s": total("core.device:build"),
        "interaction.hand.updates": count("interaction.hand:update"),
        "interaction.hand.self_s": layers.get("interaction.hand", 0.0),
        "interaction.user.trials": count("interaction.user:trial"),
        "interaction.user.self_s": layers.get("interaction.user", 0.0),
        "hardware.i2c.writes": count("hardware.i2c:write"),
        "hardware.i2c.self_s": layers.get("hardware.i2c", 0.0),
        "baselines.distscroll.trials": ds_trials,
        "baselines.distscroll.trial_ms_p50": 1e3 * quantile(
            durations("baselines:distscroll"), 0.50
        ),
        "baselines.distscroll.trial_ms_p99": 1e3 * quantile(
            durations("baselines:distscroll"), 0.99
        ),
        "baselines.distscroll.events_per_trial": (
            counters.get("distscroll.events", 0) / ds_trials
            if ds_trials else 0.0
        ),
        "baselines.distscroll.share": (
            total("baselines:distscroll") / all_select if all_select else 0.0
        ),
        "baselines.other.busy_s": total(*other_keys),
        "interaction.personas.derivations": count(
            "interaction.personas:derive"
        ),
        "interaction.personas.self_s": layers.get(
            "interaction.personas", 0.0
        ),
        "experiments.user_study.users": count("experiments.user_study:user"),
        "experiments.user_study.self_s": layers.get(
            "experiments.user_study", 0.0
        ),
        "experiments.user_study.user_us_p50": 1e6 * quantile(
            durations("experiments.user_study:user"), 0.50
        ),
        "experiments.user_study.user_us_p99": 1e6 * quantile(
            durations("experiments.user_study:user"), 0.99
        ),
        "analysis.stats.adds": count("analysis.stats:add"),
        "analysis.stats.add_s": total("analysis.stats:add"),
        "analysis.stats.merges": count("analysis.stats:merge"),
        "analysis.stats.merge_s": total("analysis.stats:merge"),
        "core.batch.steps": count("core.batch:step"),
        "core.batch.self_s": layers.get("core.batch", 0.0),
        "trace.unattributed_s": summary["unattributed_s"],
        "trace.device_stack_share": stack / wall if wall > 0 else 0.0,
        "trace.spans": sum(entry["count"] for entry in names.values()),
    }


def self_time_table(summary: dict[str, Any]) -> str:
    """Plain-text per-layer self-time table, closing on the wall time."""
    wall = summary["wall_s"]
    rows = sorted(summary["layers"].items(), key=lambda item: -item[1])
    rows.append(("(unattributed)", summary["unattributed_s"]))
    lines = [f"{'layer':28s} {'self_s':>12s} {'share':>8s}"]
    for layer, seconds in rows:
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"{layer:28s} {seconds:12.6f} {share:8.2%}")
    total = sum(seconds for _, seconds in rows)
    lines.append(f"{'sum (= traced wall)':28s} {total:12.6f} {1:8.2%}")
    lines.append(f"{'traced wall':28s} {wall:12.6f}")
    return "\n".join(lines) + "\n"


def chrome_trace(
    log: SpanLog, origin: float, title: str, limit: Optional[int] = None
) -> str:
    """Chrome trace-event JSON of the spans (complete ``"X"`` events).

    ``limit`` keeps the first spans by start time; the totals in
    ``otherData`` always cover every span.
    """
    n = len(log) if limit is None else min(limit, len(log))
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": title}}
    ]
    for index in range(n):
        name = log.names[log.name_id[index]]
        events.append(
            {
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (log.start[index] - origin) * 1e6,
                "dur": (log.end[index] - log.start[index]) * 1e6,
                "args": {"parent": log.parent[index]},
            }
        )
    document = {
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "perfbench",
            "spans_total": len(log),
            "spans_exported": n,
        },
        "traceEvents": events,
    }
    return json.dumps(document, sort_keys=True) + "\n"
