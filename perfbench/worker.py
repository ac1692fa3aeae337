"""One benchmark process: set up a workload, then time or trace it.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
once set-up is done (``run.py`` times interpreter start + set-up from
outside), then one ``RESULT <json>`` line.

Modes:

* ``setup``   -- set up and exit (an extra ``setup_s`` sample).
* ``measure`` -- closed loop over units until ``--seconds`` would be
  exceeded; per-unit wall and CPU times with the host speed sampled
  during each unit (``hostspeed``), peak RSS, digest checks.
* ``trace``   -- a fixed replay of the run's first unit: untraced
  warm-up, untraced reference, then traced with every layer wrapped;
  per-layer metrics, Chrome trace and self-time table.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

#: Spans written to the Chrome trace (totals always cover every span).
CHROME_SPAN_LIMIT = 100_000


def _emit(tag: str, payload: Optional[dict] = None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """This process's high-water RSS plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is KiB on Linux


def load_pins() -> dict[str, Any]:
    return json.loads((HERE / "digests.json").read_text())


def check(
    pins: dict[str, Any], workload: str, experiment_seed: int,
    digests: dict[str, str],
) -> list[str]:
    """Names of outputs whose digest differs from (or lacks) its pin."""
    pinned = pins.get(workload, {}).get(str(experiment_seed), {})
    return sorted(
        name for name, digest in digests.items() if pinned.get(name) != digest
    )


def outputs_per_unit(name: str) -> int:
    """Units counted toward ``attempted`` per workload unit."""
    return len(workloads.suite_ids()) if name == "suite" else 1


def measure(workload: workloads.Workload, seed: int, seconds: float) -> dict:
    pins = load_pins()
    per_unit = outputs_per_unit(workload.name)
    units: list[dict[str, Any]] = []
    attempted = failed = 0
    started = time.perf_counter()
    k = 0
    while True:
        experiment_seed = workload.experiment_seed(seed, k)
        sampler = hostspeed.SpeedSampler()
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        with sampler:
            try:
                out = workload.run(experiment_seed)
            except Exception:
                traceback.print_exc()
                out = None
        # The reference passes ran in this thread: take them out.
        wall = time.perf_counter() - wall0 - sampler.spent_s
        cpu = _cpu_s() - cpu0 - sampler.spent_s
        attempted += per_unit
        if out is None:
            failed += per_unit
        else:
            bad = check(pins, workload.name, experiment_seed, out.digests)
            failed += len(bad)
            if bad:
                print(f"digest mismatch, seed {experiment_seed}: {bad}",
                      file=sys.stderr)
            units.append({"seed": experiment_seed, "wall_s": wall,
                          "cpu_s": cpu, "users": out.users,
                          "ref_s": sampler.mean_s,
                          "ref_n": len(sampler.samples)})
        k += 1
        elapsed = time.perf_counter() - started
        walls = sorted(u["wall_s"] for u in units) or [wall]
        if elapsed + walls[len(walls) // 2] > seconds:
            break
    return {
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": _peak_rss_mb(),
        "elapsed_s": time.perf_counter() - started,
    }


def _runner_metrics(report: Optional[dict]) -> dict[str, float]:
    """``runner.*`` per-layer metrics from a ``run_experiments`` report."""
    if report is None:
        return {
            "runner.worker_utilisation": 0.0,
            "runner.critical_path_s": 0.0,
            "runner.queue_wait_s": 0.0,
            "runner.merge_s": 0.0,
            "runner.shards": 0,
            "runner.cache_hits": 0,
        }
    experiments = report["experiments"].values()
    return {
        "runner.worker_utilisation": float(report["worker_utilisation"] or 0.0),
        # No shard can be split, so the longest shard bounds the makespan.
        "runner.critical_path_s": max(
            e["compute_wall_s"] / e["shards"] for e in experiments
        ),
        "runner.queue_wait_s": sum(e["queue_wait_s"] for e in experiments),
        "runner.merge_s": sum(e["merge_s"] for e in experiments),
        "runner.shards": sum(e["shards"] for e in experiments),
        "runner.cache_hits": report["cached_count"]
        + sum(e["shards_from_cache"] for e in experiments),
    }


def trace(workload: workloads.Workload, seed: int) -> dict:
    """Replay the run's first unit: warm-up, untraced, then traced."""
    from repro.sim.kernel import global_events_processed

    pins = load_pins()
    experiment_seed = workload.experiment_seed(seed, 0)
    # The traced suite pass runs inline, so every span lands here.
    inline = {"jobs": 1} if workload.name == "suite" else {}
    per_unit = outputs_per_unit(workload.name)
    attempted = failed = 0

    def checked(out: workloads.UnitOutput) -> dict[str, str]:
        nonlocal attempted, failed
        attempted += per_unit
        failed += len(check(pins, workload.name, experiment_seed, out.digests))
        return out.digests

    # Warm-up; on the suite this is the real ``--jobs 2`` pass whose own
    # report gives the runner.* numbers.
    warm = workload.run(experiment_seed)
    checked(warm)
    started = time.perf_counter()
    reference = checked(workload.run(experiment_seed, **inline))
    untraced_wall = time.perf_counter() - started

    log = spantrace.SpanLog()
    events_before = global_events_processed()
    patches = spantrace.instrument(log)
    try:
        started = time.perf_counter()
        traced_out = workload.run(experiment_seed, **inline)
        traced_wall = time.perf_counter() - started
    finally:
        patches.restore()
    events = global_events_processed() - events_before
    traced = checked(traced_out)

    summary = spantrace.summarize(log, traced_wall)
    metrics: dict[str, float] = spantrace.layer_metrics(
        summary, log.counters, events
    )
    metrics.update(_runner_metrics(warm.report))
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{workload.name}-seed{seed}"
    Path(f"{stem}.trace.json").write_text(
        spantrace.chrome_trace(
            log, started, f"perfbench {workload.name}", CHROME_SPAN_LIMIT
        )
    )
    Path(f"{stem}.layers.txt").write_text(spantrace.self_time_table(summary))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "traced_equals_untraced": traced == reference,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "layers_self_s": summary["layers"],
        "files": [f"{stem}.trace.json", f"{stem}.layers.txt"],
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    workload = workloads.setup(args.workload)
    _emit("READY")
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        result = measure(workload, args.seed, args.seconds)
    else:
        result = trace(workload, args.seed)
    _emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
