"""The repository benchmark: one command per workload and trace setting.

Run from the repository root::

    python3 perfbench/run.py --workload arena --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: several
fresh set-ups for ``setup_s``, then one worker process running the
workload's closed loop for ``--seconds``.  Every time is calibrated to a
reference host speed, read from a fixed loop timed while the measurement
runs (see ``hostspeed``), so the host's drift cancels; set-up times are
raw.  ``--trace 1`` runs the traced
replay and reports the per-layer metrics instead.  Either way the output
digests are checked against ``perfbench/digests.json``, a run record
(source digest, seed, host, versions) is printed and written under
``perfbench/out/``, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when the run completed (``correct`` says whether the
outputs matched), 2 when the program source is missing, 1 when a worker
failed or overran its time budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterator, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("arena", "study", "suite")
#: Extra set-up-only processes per untraced run; with the measuring
#: worker's own set-up that gives this many + 1 ``setup_s`` samples.
SETUP_PROBES = 4
#: Hard wall budget for one invocation (a run must end within 180 s).
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def _lines(proc: subprocess.Popen, deadline: float) -> Iterator[tuple[str, float]]:
    """Yield ``(line, time read)`` from a worker's stdout until EOF."""
    assert proc.stdout is not None
    fd = proc.stdout.fileno()
    pending = b""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise WorkerError("worker overran the time budget")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            raise WorkerError("worker overran the time budget")
        chunk = os.read(fd, 1 << 16)
        now = time.perf_counter()
        if not chunk:
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line.decode(), now


def run_worker(
    mode: str, workload: str, seed: int, seconds: float, deadline: float
) -> tuple[float, Optional[dict]]:
    """Start a worker; returns (seconds until READY, RESULT payload)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    ready_s: Optional[float] = None
    result: Optional[dict] = None
    try:
        for line, at in _lines(proc, deadline):
            if line == "READY" and ready_s is None:
                ready_s = at - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        assert proc.stdout is not None
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise WorkerError(f"{mode} worker exited with code {code}")
    if mode != "setup" and result is None:
        raise WorkerError(f"{mode} worker printed no result")
    return ready_s, result


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------
def source_digest() -> str:
    """sha256 over every program source file (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(measured: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """(metrics, human-readable lines) of an untraced run.

    Unit times are calibrated to the reference host speed sampled during
    each unit (``hostspeed``); the lines also give their raw medians.
    Set-up times are raw (see ``hostspeed``).
    """
    units = measured["units"]
    if not units:
        raise WorkerError("no unit completed")

    def calibrated(key: str) -> list[float]:
        return [hostspeed.calibrate(u[key], u["ref_s"]) for u in units]

    run_ref = statistics.median(u["ref_s"] for u in units)
    walls = calibrated("wall_s")
    cpus = calibrated("cpu_s")
    rates = [u["users"] / wall for u, wall in zip(units, walls)]
    raw_walls = [u["wall_s"] for u in units]
    values = {
        "wall_s": (walls, "s", raw_walls),
        "users_per_s": (rates, "users/s",
                        [u["users"] / u["wall_s"] for u in units]),
        "setup_s": (setups, "s", None),
        "cpu_s": (cpus, "s", [u["cpu_s"] for u in units]),
        "peak_rss_mb": ([measured["peak_rss_mb"]], "MiB", None),
    }
    metrics = {}
    lines = []
    for name, (samples, unit, raw) in values.items():
        value = statistics.median(samples)
        metrics[name] = {"value": value, "unit": unit}
        if name == "peak_rss_mb":
            detail = "high-water mark of the run"
        else:
            q1, _, q3 = _quartiles(samples)
            detail = (f"median of {len(samples)}, quartiles "
                      f"{q1:.4g}..{q3:.4g}")
            if raw is not None:
                detail += f"; raw median {statistics.median(raw):.4g}"
        lines.append(f"  {name:14s} {value:12.6g} {unit:8s} {detail}")
    lines.append(f"  {'reference':14s} {run_ref:12.6g} "
                 f"{'s':8s} median over units of the mean reference-loop "
                 f"pass, calibrated to {hostspeed.REFERENCE_S:g} s")
    frac = measured["failed"] / measured["attempted"]
    lines.append(f"  {'failed_frac':14s} {frac:12.6g} {'ratio':8s} "
                 f"{measured['failed']} of {measured['attempted']} units")
    return metrics, lines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.perf_counter() + BUDGET_S
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    try:
        if args.trace:
            _, traced = run_worker("trace", args.workload, args.seed,
                                   args.seconds, deadline)
            assert traced is not None
            values = traced["metrics"]
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
            attempted, failed = traced["attempted"], traced["failed"]
            correct = failed == 0 and traced["traced_equals_untraced"]
            lines = [f"  {n:40s} {values[n]:14.6g} {units[n]}" for n in names]
            record["trace_files"] = traced["files"]
        else:
            setups = []
            for _ in range(SETUP_PROBES):
                ready, _ = run_worker("setup", args.workload, args.seed,
                                      args.seconds, deadline)
                setups.append(ready)
            ready, measured = run_worker("measure", args.workload, args.seed,
                                         args.seconds, deadline)
            assert measured is not None
            setups.append(ready)
            metrics, lines = end_to_end(measured, setups)
            attempted, failed = measured["attempted"], measured["failed"]
            correct = failed == 0
            record["units"] = measured["units"]
            record["setup_samples_s"] = setups
    except WorkerError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    record["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.record.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted - failed}/{attempted} outputs match their pins")
    print("\n".join(lines))
    print("record " + json.dumps(
        {k: v for k, v in record.items() if k not in ("units", "metrics")},
        sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
