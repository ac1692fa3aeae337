"""The ``repro bench`` benchmark suite and regression gate.

Every benchmark here is a *headless* workload: no pytest, no fixtures,
just seeded construction and a timed run, so the suite doubles as a CI
smoke job and as the producer of the committed ``BENCH_perf.json``
baseline.  Two kinds of number come out:

* ``units_per_s`` — absolute throughput (events, samples or islands per
  second of host wall-clock).  Machine-dependent; the regression gate
  compares it against a baseline produced on the same runner class.
* ``derived`` ratios — e.g. observed-vs-plain device throughput.
  Dimensionless and machine-independent, so the floors that
  ``tests/test_perf_bench.py`` holds the committed baseline to apply on
  any host.

``units_per_s`` is best-of-N.  A ratio of two benchmarks
(:data:`PAIRED_RATIOS`) is measured *paired*: every round times its
numerator and denominator back to back, alternating which goes first,
and the ratio is the median of the per-round ratios.  Both halves of a
round see the same host, so a shared machine's drift between two
workloads timed seconds apart no longer moves the gate.

Wall-clock reads live in exactly one helper (:func:`_timed_once`); they
are intentional host-time telemetry around — never inside — the
deterministic simulation, and carry inline ``# reprolint: allow REP001``
waivers accordingly.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "BENCHMARKS",
    "BenchRecord",
    "run_benchmarks",
    "check_report",
    "format_report",
]

#: Gate defaults: max tolerated throughput drop vs baseline, and the
#: minimum worker utilisation the scheduler must sustain on the skewed
#: fan-out workload (full mode only — quick shards are too small to
#: amortize worker handoff).
DEFAULT_THRESHOLD = 0.25
DEFAULT_MIN_EFFICIENCY = 0.8

#: Derived ratio -> (numerator, denominator) benchmark names, each
#: measured paired when both benchmarks run (see the module docstring).
PAIRED_RATIOS: dict[str, tuple[str, str]] = {
    "obs_enabled_ratio": ("device-second-observed", "device-second"),
}


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark's outcome (one entry in ``BENCH_perf.json``)."""

    name: str
    wall_s: float
    units: int
    unit_name: str
    rounds: int
    notes: dict = field(default_factory=dict)

    @property
    def units_per_s(self) -> float:
        """Throughput — the number the regression gate watches."""
        return self.units / self.wall_s if self.wall_s > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "units": self.units,
            "unit_name": self.unit_name,
            "units_per_s": self.units_per_s,
            "rounds": self.rounds,
            **self.notes,
        }


#: A workload returns its unit count, optionally with a notes dict of
#: derived values measured inside the run (e.g. worker utilisation).
Workload = Callable[[], "int | tuple[int, dict]"]


def _timed_once(workload: Workload) -> tuple[float, int, dict]:
    """One round's wall time, units and notes for a workload."""
    # reprolint: allow REP001 (`repro bench` throughput for BENCH_perf.json; times a whole workload, never read inside the sim)
    start = time.perf_counter()
    outcome = workload()
    # reprolint: allow REP001 (`repro bench` throughput for BENCH_perf.json; times a whole workload, never read inside the sim)
    elapsed = time.perf_counter() - start
    if isinstance(outcome, tuple):
        units, notes = outcome
        return elapsed, units, notes
    return elapsed, outcome, {}


@dataclass
class _Best:
    """Best-of-N accumulator for one benchmark's rounds.

    The notes of the best round are kept — they describe the same
    execution the reported wall time came from.
    """

    wall_s: float = float("inf")
    units: int = 0
    notes: dict = field(default_factory=dict)
    rounds: int = 0

    def time(self, workload: Workload) -> float:
        """Run one round; returns its throughput (units per second)."""
        elapsed, units, notes = _timed_once(workload)
        self.rounds += 1
        if elapsed < self.wall_s:
            self.wall_s, self.units, self.notes = elapsed, units, notes
        return units / elapsed if elapsed > 0 else 0.0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _calib_sweep(quick: bool) -> Callable[[], int]:
    """The Figure-4 sampling sweep: GP2D120 read throughput.

    Times exactly the loop that :func:`repro.sensors.calibration.calibrate`
    runs per grid point (one fresh measurement cycle per reading), without
    the curve fits, so the sensor reads dominate the timing.
    """
    from repro.sensors.gp2d120 import (
        GP2D120,
        SENSOR_MAX_CM,
        SENSOR_MIN_CM,
    )

    readings = 64 if quick else 256
    distances = np.arange(SENSOR_MIN_CM, SENSOR_MAX_CM + 0.5, 1.0)

    def workload() -> int:
        sensor = GP2D120.specimen(np.random.default_rng(0))
        cycle = sensor.params.cycle_time_s
        clock = 0.0
        total = 0
        for distance in distances:
            clock += 0.5
            for _ in range(readings):
                clock += cycle * 1.05
                sensor.output_voltage(clock, float(distance))
            total += readings
        return total

    return workload


def _fig4_end_to_end(quick: bool) -> Callable[[], int]:
    from repro.experiments.fig4 import run_fig4

    readings = 16 if quick else 64

    def workload() -> int:
        result, _calibration = run_fig4(seed=0, readings_per_point=readings)
        return len(result.rows) * readings

    return workload


def _island_map(quick: bool) -> Callable[[], int]:
    from repro.core.islands import build_island_map
    from repro.hardware.adc import ADC
    from repro.sensors.gp2d120 import GP2D120

    repeats = 20 if quick else 100
    entries = 64

    def workload() -> int:
        sensor = GP2D120(rng=None)
        adc = ADC(rng=None)
        for _ in range(repeats):
            island_map = build_island_map(sensor, adc, entries)
        return repeats * island_map.n_slots

    return workload


def _kernel_events(quick: bool) -> Callable[[], int]:
    from repro.sim.kernel import Simulator

    count = 20_000 if quick else 100_000

    def workload() -> int:
        sim = Simulator(seed=0)
        nop = lambda: None  # noqa: E731
        for i in range(count):
            sim.schedule(i * 1e-4, nop)
        sim.run()
        return sim.events_processed

    return workload


def _kernel_cancel_churn(quick: bool) -> Callable[[], int]:
    """Periodic-task churn: the workload the heap compaction targets.

    Repeatedly starts and stops batches of periodic tasks while the
    simulation advances, so the queue keeps accumulating cancelled
    corpses the way a long multi-user study does.
    """
    from repro.sim.kernel import PeriodicTask, Simulator

    generations = 60 if quick else 250

    def workload() -> int:
        sim = Simulator(seed=0)
        nop = lambda: None  # noqa: E731
        for generation in range(generations):
            tasks = [
                PeriodicTask(sim, 0.01 + i * 1e-4, nop) for i in range(40)
            ]
            sim.run_until(sim.now + 0.05)
            for task in tasks:
                task.stop()
        sim.run()
        return sim.events_processed

    return workload


def _device_second(quick: bool) -> Callable[[], int]:
    from repro.core.device import DistScroll
    from repro.core.menu import build_menu

    seconds = 2.0 if quick else 10.0

    def workload() -> int:
        device = DistScroll(
            build_menu([f"Item {i}" for i in range(10)]), seed=1
        )
        device.hold_at(15.0)
        device.run_for(seconds)
        return device.sim.events_processed

    return workload


def _device_second_observed(quick: bool) -> Callable[[], int]:
    """The device-second workload with an *enabled* recorder.

    Compares against ``device-second`` (null recorder) to measure the
    cost of full observability — spans, histograms and counters all
    live.  The gate cares about the default path staying free; this
    benchmark documents what opting in costs.
    """
    from repro.core.device import DistScroll
    from repro.core.menu import build_menu
    from repro.obs.recorder import Recorder, use_recorder

    seconds = 2.0 if quick else 10.0

    def workload() -> int:
        with use_recorder(Recorder()):
            device = DistScroll(
                build_menu([f"Item {i}" for i in range(10)]), seed=1
            )
            device.hold_at(15.0)
            device.run_for(seconds)
        return device.sim.events_processed

    return workload


def _user_study_throughput(quick: bool) -> Callable[[], int]:
    """Population-study participants per second (``--users`` path).

    Times :func:`repro.experiments.user_study.run_user_block` — persona
    derivation, the analytic trial battery, and the streaming fold into
    a :class:`~repro.experiments.user_study.StudyAggregate` — which is
    exactly the per-shard work of ``repro run STUDY1 --users N``.  The
    ``users_per_second`` gate keeps million-user studies tractable.
    """
    from repro.experiments.user_study import run_user_block

    users = 500 if quick else 4000

    def workload() -> int:
        aggregate = run_user_block(0, 0, users)
        return aggregate.n_users

    return workload


def _technique_arena(quick: bool) -> Callable[[], int]:
    """Arena tournament participants per second (the ARENA shard path).

    Times :func:`repro.experiments.arena.run_arena_block` — persona
    derivation, one session per registered technique over the ScrollTest
    battery, scheduled fault windows, and the streaming fold into an
    :class:`~repro.experiments.arena.ArenaAggregate` — exactly the
    per-shard work of ``repro run ARENA --users N``.
    """
    from repro.experiments.arena import run_arena_block

    users = 8 if quick else 48

    def workload() -> int:
        aggregate = run_arena_block(0, 0, users)
        return aggregate.n_users

    return workload


def _runner_fanout(quick: bool) -> Callable[[], tuple[int, dict]]:
    """Skewed shard fan-out through the runner's work-queue executor.

    Runs the synthetic :mod:`repro.perf.fanout` experiment — one
    dominant straggler shard plus a tail of cheap ones — across four
    work-queue workers, and reports the driver's measured worker
    utilisation as ``scheduler_efficiency``: the fraction of available
    worker-seconds spent executing shards during the fan-out.  LPT
    ordering and as-completed collection are what keep it high; a
    submission-order scheduler on this workload idles the fleet behind
    the straggler.
    """
    from repro.perf.fanout import SKEWED_COSTS, fanout_spec
    from repro.runner.pool import run_experiments

    workers = 4
    scale = 60 if quick else 600
    spec = fanout_spec(scale=scale)

    def workload() -> tuple[int, dict]:
        _results, bench = run_experiments(
            ["FANOUT"],
            seed=0,
            jobs=workers,
            overrides={"FANOUT": spec},
        )
        utilisation = bench["worker_utilisation"] or 0.0
        units = sum(SKEWED_COSTS) * scale
        return units, {
            "scheduler_efficiency": utilisation,
            "backend": bench["backend"],
            "workers": workers,
            "shards": len(SKEWED_COSTS),
        }

    return workload


def _lint_tree(quick: bool) -> Callable[[], int]:
    """Every reprolint rule over the package's own source tree.

    The work of ``repro lint`` on ``src/repro``, timed here rather than
    under a wall-clock bound in the test suite: repeated best-of-N
    rounds and the same-mode throughput gate tell a slower linter from
    a busy host.  Both modes lint the whole tree; the flow rules resolve
    names across every module.
    """
    from pathlib import Path

    import repro
    from repro.devtools import LintEngine

    root = Path(repro.__file__).resolve().parent
    files = len(list(root.rglob("*.py")))

    def workload() -> int:
        LintEngine().lint_project(root)
        return files

    return workload


#: name -> (factory(quick) -> workload, unit name).  The factory imports
#: lazily so ``repro bench --list`` stays fast and dependency-light.
BENCHMARKS: dict[str, tuple[Callable[[bool], Workload], str]] = {
    "calib-sweep-scalar": (_calib_sweep, "samples"),
    "fig4-end-to-end": (_fig4_end_to_end, "samples"),
    "island-map": (_island_map, "islands"),
    "kernel-events": (_kernel_events, "events"),
    "kernel-cancel-churn": (_kernel_cancel_churn, "events"),
    "device-second": (_device_second, "events"),
    "device-second-observed": (_device_second_observed, "events"),
    "user-study-throughput": (_user_study_throughput, "users"),
    "technique-arena": (_technique_arena, "users"),
    "runner-fanout": (_runner_fanout, "iterations"),
    "lint-tree": (_lint_tree, "files"),
}


def run_benchmarks(
    only: Optional[Sequence[str]] = None,
    quick: bool = False,
    echo: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the suite and return the ``BENCH_perf.json`` payload.

    Parameters
    ----------
    only:
        Subset of benchmark names (default: all, in registry order).
    quick:
        Smaller workloads and fewer rounds — the CI smoke setting.
    echo:
        Progress sink (e.g. ``print``); ``None`` for silence.
    """
    say = echo or (lambda _line: None)
    names = list(only) if only else list(BENCHMARKS)
    unknown = [name for name in names if name not in BENCHMARKS]
    if unknown:
        raise KeyError(f"unknown benchmarks: {', '.join(unknown)}")

    # Best-of-N: even in quick mode a second round so first-call costs
    # (module imports, numpy ufunc setup) never pollute the measurement.
    # Paired ratios take more rounds: their median must be steady.
    rounds = 2 if quick else 3
    paired_rounds = 15 if quick else 31
    workloads = {name: BENCHMARKS[name][0](quick) for name in names}
    best = {name: _Best() for name in names}
    ratios = {
        key: pair
        for key, pair in PAIRED_RATIOS.items()
        if pair[0] in workloads and pair[1] in workloads
    }
    paired = {name for pair in ratios.values() for name in pair}
    for name in names:
        if name not in paired:
            for _ in range(rounds):
                best[name].time(workloads[name])
    # Round-robin over the ratios, so each ratio's rounds spread across
    # the whole paired phase instead of one burst of host state.
    ratio_rounds: dict[str, list[float]] = {key: [] for key in ratios}
    for index in range(paired_rounds):
        for key, (numerator, denominator) in ratios.items():
            first, second = (
                (numerator, denominator) if index % 2 == 0
                else (denominator, numerator)
            )
            rate = {first: best[first].time(workloads[first])}
            rate[second] = best[second].time(workloads[second])
            ratio_rounds[key].append(
                rate[numerator] / rate[denominator]
                if rate[denominator] > 0 else 0.0
            )

    records: dict[str, BenchRecord] = {}
    for name in names:
        measured = best[name]
        record = BenchRecord(
            name=name,
            wall_s=measured.wall_s,
            units=measured.units,
            unit_name=BENCHMARKS[name][1],
            rounds=measured.rounds,
            notes=measured.notes,
        )
        records[name] = record
        say(
            f"{name:24s} {record.wall_s:8.3f}s  {record.units:>9d} "
            f"{record.unit_name:8s}  {record.units_per_s:12,.0f}/s"
        )

    derived: dict[str, float] = {
        key: statistics.median(values) for key, values in ratio_rounds.items()
    }
    study = records.get("user-study-throughput")
    if study is not None:
        # Surfaced as a named derived value so dashboards and the gate
        # can track "how big a study is feasible" directly.
        derived["users_per_second"] = study.units_per_s
    if "obs_enabled_ratio" in derived:
        say(
            "observability enabled: "
            f"{derived['obs_enabled_ratio']:.2f}x null-recorder throughput"
        )
    fanout = records.get("runner-fanout")
    if fanout is not None and "scheduler_efficiency" in fanout.notes:
        # Worker utilisation on the skewed fan-out — measured inside
        # the run by the driver, surfaced as a gated derived value.
        derived["scheduler_efficiency"] = float(
            fanout.notes["scheduler_efficiency"]
        )
        say(
            "scheduler efficiency: "
            f"{derived['scheduler_efficiency']:.2f} worker utilisation "
            "on the skewed fan-out"
        )

    from repro.runner.cache import source_digest

    return {
        "generated_by": "python -m repro bench",
        # The sources measured: a report whose digest differs from
        # source_digest() was measured on other code.
        "source_digest": source_digest(),
        "quick": quick,
        "rounds": rounds,
        "paired_rounds": paired_rounds,
        "benchmarks": {
            name: records[name].to_json() for name in names
        },
        "derived": derived,
        "ratio_rounds": ratio_rounds,
    }


def check_report(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_efficiency: float = DEFAULT_MIN_EFFICIENCY,
) -> list[str]:
    """Regression gate: failure messages, empty when the gate passes.

    * every benchmark present in both reports must keep at least
      ``(1 - threshold)`` of the baseline ``units_per_s`` — but only when
      both reports ran in the same mode (quick workloads are sized
      differently, so quick-vs-full throughput is not comparable);
    * every derived ratio must likewise stay within ``threshold`` of its
      baseline value, again same-mode only: ratios are
      machine-independent but *not* workload-size-independent (a
      quick run's fixed costs weigh differently on each half of a
      ratio);
    * the scheduler must keep at least ``min_efficiency`` worker
      utilisation on the skewed fan-out, full mode only: quick-mode
      shards are deliberately small, so worker handoff overhead
      dominates and the absolute floor would gate noise, not
      scheduling quality.
    """
    failures: list[str] = []
    same_mode = bool(current.get("quick")) == bool(baseline.get("quick"))
    current_benchmarks = current.get("benchmarks", {})
    baseline_benchmarks = baseline.get("benchmarks", {})
    for name, pinned in baseline_benchmarks.items():
        measured = current_benchmarks.get(name)
        if measured is None:
            failures.append(f"{name}: in baseline but not measured")
            continue
        if not same_mode:
            continue
        floor = pinned["units_per_s"] * (1.0 - threshold)
        if measured["units_per_s"] < floor:
            drop = 1.0 - measured["units_per_s"] / pinned["units_per_s"]
            failures.append(
                f"{name}: {measured['units_per_s']:,.0f} "
                f"{measured['unit_name']}/s is {drop:.0%} below baseline "
                f"{pinned['units_per_s']:,.0f}/s "
                f"(threshold {threshold:.0%})"
            )
    for key, pinned_value in baseline.get("derived", {}).items():
        measured_value = current.get("derived", {}).get(key)
        if measured_value is None:
            failures.append(f"derived {key}: in baseline but not measured")
        elif not same_mode:
            continue
        elif measured_value < pinned_value * (1.0 - threshold):
            failures.append(
                f"derived {key}: {measured_value:.2f} fell more than "
                f"{threshold:.0%} below baseline {pinned_value:.2f}"
            )
    efficiency = current.get("derived", {}).get("scheduler_efficiency")
    if (
        efficiency is not None
        and not current.get("quick")
        and efficiency < min_efficiency
    ):
        failures.append(
            f"scheduler efficiency {efficiency:.2f} is below the required "
            f"{min_efficiency:.2f} worker utilisation — the runner is "
            "idling workers behind stragglers on the skewed fan-out"
        )
    return failures


def format_report(report: dict) -> str:
    """Human-oriented one-screen rendering of a report."""
    lines = [
        f"{'benchmark':24s} {'wall_s':>8s} {'units':>10s} "
        f"{'throughput':>14s}"
    ]
    for name, entry in report.get("benchmarks", {}).items():
        lines.append(
            f"{name:24s} {entry['wall_s']:8.3f} "
            f"{entry['units']:>10,d} "
            f"{entry['units_per_s']:>12,.0f}/s"
        )
    for key, value in report.get("derived", {}).items():
        lines.append(f"{key}: {value:.2f}x")
    return "\n".join(lines)


def load_report(path: Path) -> dict:
    """Read a ``BENCH_perf.json`` produced by :func:`run_benchmarks`."""
    with Path(path).open() as fh:
        return json.load(fh)
