"""The ``repro bench`` benchmark suite and regression gate.

Every benchmark here is a *headless* workload: no pytest, no fixtures,
just seeded construction and a timed run, so the suite doubles as a CI
smoke job and as the producer of the committed ``BENCH_perf.json``
baseline.  Two kinds of number come out:

* ``units_per_s`` — absolute throughput (events, samples or islands per
  second of host wall-clock).  Machine-dependent; the regression gate
  compares it against a baseline produced on the same runner class.
* ``derived`` ratios — e.g. the vectorized-vs-scalar calibration-sweep
  speedup.  Dimensionless and machine-independent, so the gate can
  enforce them anywhere (the fast path must stay >= 3x).

Wall-clock reads live in exactly one helper (:func:`_timed`); they are
intentional host-time telemetry around — never inside — the
deterministic simulation, and carry inline ``# reprolint: allow REP001``
waivers accordingly.
"""

from __future__ import annotations

import json
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

#: Gate defaults: max tolerated throughput drop vs baseline, the
#: minimum vectorized calibration-sweep speedup the fast path must keep,
#: and the minimum worker utilisation the scheduler must sustain on the
#: skewed fan-out workload (full mode only — quick shards are too small
#: to amortize worker handoff).
DEFAULT_THRESHOLD = 0.25
DEFAULT_MIN_SPEEDUP = 3.0
DEFAULT_MIN_EFFICIENCY = 0.8


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


def _timed(workload: Workload, rounds: int) -> tuple[float, int, dict]:
    """Best-of-``rounds`` wall time for a workload returning its units.

    When the workload returns ``(units, notes)``, the notes of the best
    round are kept — they describe the same execution the reported wall
    time came from.
    """
    best = float("inf")
    units = 0
    notes: dict = {}
    for _ in range(rounds):
        # reprolint: allow REP001 (`repro bench` throughput for BENCH_perf.json; times a whole workload, never read inside the sim)
        start = time.perf_counter()
        outcome = workload()
        # reprolint: allow REP001 (`repro bench` throughput for BENCH_perf.json; times a whole workload, never read inside the sim)
        elapsed = time.perf_counter() - start
        if isinstance(outcome, tuple):
            round_units, round_notes = outcome
        else:
            round_units, round_notes = outcome, {}
        if elapsed < best:
            best, units, notes = elapsed, round_units, round_notes
    return best, units, notes


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _calib_sweep(quick: bool, vectorized: bool) -> Callable[[], int]:
    """The Figure-4 sampling sweep, scalar vs batched.

    Times exactly the loop that :func:`repro.sensors.calibration.calibrate`
    runs per grid point (one fresh measurement cycle per reading), without
    the curve fits — the fits cost the same on both paths and would only
    dilute the speedup the gate watches.
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
            if vectorized:
                times = clock + cycle * 1.05 * np.arange(1, readings + 1)
                sensor.output_voltage_array(times, float(distance))
                clock = float(times[-1])
            else:
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


def _device_second_batched(quick: bool) -> Callable[[], int]:
    """Device-seconds per wall-second on the structure-of-arrays path.

    Steps a heterogeneous fleet (mixed personas, surfaces, filter
    windows, fault schedules) through one
    :class:`repro.core.batch.DeviceBatch` driven by a kernel
    :class:`~repro.sim.kernel.BatchTask` — the FLEET experiment's hot
    loop.  Units are device-ticks, directly comparable to
    ``device-second`` events: the ``batch_speedup`` derived metric is
    the whole point of the batched engine (ROADMAP item 2).

    The fleet is built once in the factory (construction is island-map
    bound and amortizes over any real run); each round re-arms the same
    batch via ``reset()``, which drops every RNG stream (each is rebuilt
    from the seed on its first draw) and state array so rounds are
    identical work.
    """
    from repro.core.batch import DeviceBatch, derive_device_spec
    from repro.sim.kernel import BatchTask, Simulator

    n_devices = 256 if quick else 1024
    seconds = 2.0 if quick else 10.0
    specs = [
        derive_device_spec(seed=1, index=i, fault_every=8)
        for i in range(n_devices)
    ]
    batch = DeviceBatch(specs, seed=1)

    def workload() -> int:
        batch.reset()
        sim = Simulator(seed=1)
        task = BatchTask(sim, 1.0 / 50.0, batch.step)
        sim.run_while(lambda: True, max_time=seconds)
        task.stop()
        return sim.batch_units_processed

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


#: name -> (factory(quick) -> workload, unit name).  The factory imports
#: lazily so ``repro bench --list`` stays fast and dependency-light.
BENCHMARKS: dict[str, tuple[Callable[[bool], Workload], str]] = {
    "calib-sweep-scalar": (
        lambda quick: _calib_sweep(quick, vectorized=False),
        "samples",
    ),
    "calib-sweep-vectorized": (
        lambda quick: _calib_sweep(quick, vectorized=True),
        "samples",
    ),
    "fig4-end-to-end": (_fig4_end_to_end, "samples"),
    "island-map": (_island_map, "islands"),
    "kernel-events": (_kernel_events, "events"),
    "kernel-cancel-churn": (_kernel_cancel_churn, "events"),
    "device-second": (_device_second, "events"),
    "device-second-observed": (_device_second_observed, "events"),
    "device-second-batched": (_device_second_batched, "device-ticks"),
    "user-study-throughput": (_user_study_throughput, "users"),
    "technique-arena": (_technique_arena, "users"),
    "runner-fanout": (_runner_fanout, "iterations"),
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
    rounds = 2 if quick else 3
    records: dict[str, BenchRecord] = {}
    for name in names:
        factory, unit_name = BENCHMARKS[name]
        workload = factory(quick)
        wall_s, units, notes = _timed(workload, rounds)
        record = BenchRecord(
            name=name,
            wall_s=wall_s,
            units=units,
            unit_name=unit_name,
            rounds=rounds,
            notes=notes,
        )
        records[name] = record
        say(
            f"{name:24s} {wall_s:8.3f}s  {units:>9d} {unit_name:8s}"
            f"  {record.units_per_s:12,.0f}/s"
        )

    derived: dict[str, float] = {}
    scalar = records.get("calib-sweep-scalar")
    vector = records.get("calib-sweep-vectorized")
    if scalar and vector and scalar.units_per_s > 0:
        derived["calib_vector_speedup"] = (
            vector.units_per_s / scalar.units_per_s
        )
        say(
            "calibration fast path: "
            f"{derived['calib_vector_speedup']:.2f}x scalar throughput"
        )
    study = records.get("user-study-throughput")
    if study is not None:
        # Surfaced as a named derived value so dashboards and the gate
        # can track "how big a study is feasible" directly.
        derived["users_per_second"] = study.units_per_s
    plain = records.get("device-second")
    observed = records.get("device-second-observed")
    if plain and observed and plain.units_per_s > 0:
        derived["obs_enabled_ratio"] = (
            observed.units_per_s / plain.units_per_s
        )
        say(
            "observability enabled: "
            f"{derived['obs_enabled_ratio']:.2f}x null-recorder throughput"
        )
    batched = records.get("device-second-batched")
    if plain and batched and plain.units_per_s > 0:
        # Device-ticks vs kernel events of the same 50 Hz firmware loop:
        # how much the SoA engine buys over stepping devices one by one.
        derived["batch_speedup"] = (
            batched.units_per_s / plain.units_per_s
        )
        say(
            "batched engine: "
            f"{derived['batch_speedup']:.1f}x scalar device throughput"
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

    return {
        "generated_by": "python -m repro bench",
        "quick": quick,
        "rounds": rounds,
        "benchmarks": {
            name: records[name].to_json() for name in names
        },
        "derived": derived,
    }


def check_report(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
    min_efficiency: float = DEFAULT_MIN_EFFICIENCY,
) -> list[str]:
    """Regression gate: failure messages, empty when the gate passes.

    * every benchmark present in both reports must keep at least
      ``(1 - threshold)`` of the baseline ``units_per_s`` — but only when
      both reports ran in the same mode (quick workloads are sized
      differently, so quick-vs-full throughput is not comparable);
    * every derived ratio must likewise stay within ``threshold`` of its
      baseline value, again same-mode only: ratios are
      machine-independent but *not* workload-size-independent (the
      vectorized sweep amortizes numpy dispatch better on the full
      workload, so quick-mode speedups run measurably lower than
      full-mode ones on the same machine and code);
    * the calibration fast path must stay at least ``min_speedup`` times
      faster than the scalar reference in **every** mode, baseline or
      not — this absolute floor is what the CI quick run gates on;
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
    speedup = current.get("derived", {}).get("calib_vector_speedup")
    if speedup is not None and speedup < min_speedup:
        failures.append(
            f"calibration fast path speedup {speedup:.2f}x is below the "
            f"required {min_speedup:.1f}x — the vectorized sensing path "
            "regressed toward the scalar loop"
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
