"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction a front door that does not require writing
Python: list and run experiments (serially or across worker processes),
print a quick interactive demo of the device, dump the sensor
calibration, or inspect an island-map configuration.

Commands
--------
``experiments``            list all experiment ids
``run <id> [--seed N] [--csv PATH] [--jobs N] [--resume]
          [--users N [--personas SPEC] [--battery NAME]]``
                           run one experiment through the runner and
                           print its table (progress lines go to
                           stderr); ``--jobs`` 1 (default) runs its
                           shards inline, N >= 2 across N work-queue
                           worker processes, with identical rows.  For
                           STUDY1, ``--users N`` switches to the
                           population-scale persona study (streaming
                           aggregation, O(1) memory); for ARENA,
                           ``--users/--personas/--battery`` reshape the
                           cross-technique tournament the same way
                           (``--personas``/``--battery`` work without
                           ``--users`` there); ``--resume`` reads and
                           writes the on-disk shard cache, so an
                           interrupted run recomputes only the missing
                           shards
``run-all [--jobs N] [--no-cache] [--only ID,ID] [--seed N]
          [--csv-dir DIR] [--cache-dir DIR] [--bench PATH]``
                           run the whole suite through the runner with
                           the on-disk shard cache, and record
                           per-experiment wall-clock and events/second
                           into ``BENCH_runner.json``
``calibrate [--seed N]``   print the Figure-4 sweep for one specimen
``demo [--seed N]``        scripted device walk-through on the phone menu
``islands [--entries N] [--near CM] [--far CM] [--fill F]
          [--placement P]``
                           print the island table (slot centers, code
                           ranges, widths, coverage) for a configuration
``lint [--root DIR] [--format text|json] [--rules ID,ID]``
                           run the reprolint invariant checks (REP001-
                           REP008) over the source tree; exits non-zero
                           on any finding not waived inline with
                           ``# reprolint: allow REP00X (reason)``
``bench [--quick] [--only NAME,NAME] [--output PATH]
        [--check BASELINE] [--threshold F] [--min-efficiency F] [--list]``
                           run the headless perf suite, write
                           ``BENCH_perf.json`` and (with ``--check``)
                           fail on >25% throughput or ratio regression
                           against the committed baseline
``trace <id> [--seed N] [--jobs N] [--out PATH] [--format chrome|jsonl]``
                           run one experiment observed and summarize its
                           sim-time spans; ``--out`` writes a Chrome
                           trace-event JSON (opens in Perfetto) or JSONL
``metrics [<id>] [--seed N] [--jobs N]``
                           print the metric report of an observed run;
                           without an id, runs a scripted device session
                           and shows the per-stage firmware histograms
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NoReturn, Optional, Sequence

from repro.experiments.harness import ExperimentResult
from repro.runner.registry import REGISTRY

__all__ = ["main"]


def _cmd_experiments(_args: argparse.Namespace) -> int:
    for experiment_id in REGISTRY:
        print(experiment_id)
    return 0


def _unknown_experiment(experiment_id: str) -> int:
    print(
        f"unknown experiment {experiment_id!r}; "
        "see `python -m repro experiments`",
        file=sys.stderr,
    )
    return 2


def _stderr_line(line: str) -> None:
    print(line, file=sys.stderr)


def _parse_crash_plan(
    tokens: Sequence[str],
) -> Optional[dict[tuple[str, int], int]]:
    """Parse repeated ``--inject-crash EXPID:SHARD[:COUNT]`` values.

    Returns ``None`` (after printing a usage error) on malformed input.
    """
    plan: dict[tuple[str, int], int] = {}
    for token in tokens:
        parts = token.split(":")
        if len(parts) not in (2, 3):
            print(
                f"--inject-crash {token!r}: expected EXPID:SHARD[:COUNT]",
                file=sys.stderr,
            )
            return None
        try:
            shard = int(parts[1])
            count = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            print(
                f"--inject-crash {token!r}: SHARD and COUNT must be"
                " integers",
                file=sys.stderr,
            )
            return None
        if shard < 0 or count < 1:
            print(
                f"--inject-crash {token!r}: SHARD must be >= 0 and"
                " COUNT >= 1",
                file=sys.stderr,
            )
            return None
        key = (parts[0].upper(), shard)
        plan[key] = plan.get(key, 0) + count
    return plan


def _crash_plan(
    args: argparse.Namespace,
) -> Optional[dict[tuple[str, int], int]]:
    """Validate ``--inject-crash`` into a crash plan (``{}`` if unset).

    Returns ``None`` (after printing to stderr) on misuse — a malformed
    token, or one without worker processes to kill — so both ``run``
    and ``run-all`` exit 2 instead of tracebacking.
    """
    crash_plan = _parse_crash_plan(args.inject_crash or [])
    if crash_plan and args.jobs < 2:
        print(
            "--inject-crash requires --jobs >= 2 (it kills worker"
            " processes, and --jobs 1 runs inline)",
            file=sys.stderr,
        )
        return None
    return crash_plan


def _cmd_run(args: argparse.Namespace) -> int:
    experiment_id = args.experiment_id.upper()
    if experiment_id not in REGISTRY:
        return _unknown_experiment(args.experiment_id)
    users = args.users
    personas = args.personas
    battery_name = args.battery
    population = (
        users is not None or personas is not None or battery_name is not None
    )
    if (
        users is None
        and (personas is not None or battery_name is not None)
        and experiment_id != "ARENA"
    ):
        print(
            "--personas/--battery only apply to population runs; "
            "add --users N (ARENA accepts them without --users)",
            file=sys.stderr,
        )
        return 2
    crash_plan = _crash_plan(args)
    if crash_plan is None:
        return 2
    overrides = None
    if population:
        if experiment_id not in ("STUDY1", "ARENA"):
            print(
                "--users is only meaningful for STUDY1 or ARENA",
                file=sys.stderr,
            )
            return 2
        from repro.interaction.personas import parse_spec
        from repro.interaction.tasks import battery
        from repro.runner.registry import arena_spec, scaled_user_study_spec

        # Shards parse these inside each worker; reject a bad value
        # here, before anything is submitted.
        try:
            parse_spec(personas or "full")
            battery(battery_name or "scrolltest")
        except ValueError as error:
            print(f"repro run: {error}", file=sys.stderr)
            return 2
        if experiment_id == "ARENA":
            default_users = dict(REGISTRY["ARENA"].params)["n_users"]
            spec = arena_spec(
                users if users is not None else default_users,
                personas=personas or "full",
                battery=battery_name or "scrolltest",
            )
        else:
            spec = scaled_user_study_spec(
                users,
                personas=personas or "full",
                battery=battery_name or "scrolltest",
            )
        overrides = {experiment_id: spec}
    from repro.runner.cache import ResultCache
    from repro.runner.pool import CrashPlanError, run_experiments

    trace_out = args.trace_out
    try:
        results, _bench = run_experiments(
            [experiment_id],
            seed=args.seed,
            jobs=args.jobs,
            # Resume is shard-cache driven: completed shards are read
            # back from the on-disk cache, so --resume means using it.
            cache=ResultCache() if args.resume else None,
            echo=_stderr_line,
            observe=trace_out is not None,
            overrides=overrides,
            crash_plan=crash_plan or None,
        )
    except CrashPlanError as error:
        print(f"--inject-crash: {error}", file=sys.stderr)
        return 2
    result = results[experiment_id]
    print(result.table())
    if args.csv:
        result.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    if trace_out is not None:
        from pathlib import Path

        from repro.obs import to_chrome_trace

        path = Path(trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            to_chrome_trace(result.obs or {}, title=experiment_id)
        )
        print(f"wrote {path} (open in https://ui.perfetto.dev)")
    return 0


def _observed_result(
    experiment_id: str, seed: int, jobs: int
) -> Optional[ExperimentResult]:
    """Run one experiment under the observed runner path."""
    from repro.runner import run_experiments

    if experiment_id not in REGISTRY:
        _unknown_experiment(experiment_id)
        return None
    results, _bench = run_experiments(
        [experiment_id], seed=seed, jobs=jobs, observe=True
    )
    return results[experiment_id]


def _device_session_payload(seed: int) -> dict:
    """A scripted observed device session for bare ``repro metrics``.

    Holds the device at four distances, clicks once, and returns the
    recorder payload — enough activity to populate every firmware
    per-stage histogram plus the kernel/ADC/I2C counters.
    """
    from repro.core.device import DistScroll
    from repro.core.menu import build_menu
    from repro.obs import Recorder, use_recorder

    recorder = Recorder()
    with use_recorder(recorder):
        device = DistScroll(
            build_menu([f"Item {i}" for i in range(10)]), seed=seed
        )
        for distance in (6.0, 12.0, 18.0, 24.0):
            device.hold_at(distance)
            device.run_for(0.75)
        device.click("select")
    return recorder.payload()


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import format_spans, to_chrome_trace, to_jsonl

    experiment_id = args.experiment_id.upper()
    result = _observed_result(experiment_id, args.seed, args.jobs)
    if result is None:
        return 2
    payload = result.obs or {}
    print(format_spans(payload))
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        if args.format == "jsonl":
            path.write_text(to_jsonl(payload))
            print(f"wrote {path}")
        else:
            path.write_text(to_chrome_trace(payload, title=experiment_id))
            print(f"wrote {path} (open in https://ui.perfetto.dev)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import format_metrics

    if args.experiment_id is None:
        payload = _device_session_payload(args.seed)
        print(
            "scripted device session "
            f"(seed {args.seed}; pass an experiment id for a real run)\n"
        )
    else:
        result = _observed_result(
            args.experiment_id.upper(), args.seed, args.jobs
        )
        if result is None:
            return 2
        payload = result.obs or {}
    print(format_metrics(payload, histograms=not args.no_histograms))
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.runner import ResultCache
    from repro.runner.pool import CrashPlanError, run_experiments

    if args.only is not None:
        experiment_ids = [
            token.strip().upper()
            for token in args.only.split(",")
            if token.strip()
        ]
        if not experiment_ids:
            print(f"--only {args.only!r} selects no experiment", file=sys.stderr)
            return 2
        unknown = [i for i in experiment_ids if i not in REGISTRY]
        if unknown:
            print(
                f"unknown experiment ids: {', '.join(unknown)}; "
                "see `python -m repro experiments`",
                file=sys.stderr,
            )
            return 2
    else:
        experiment_ids = list(REGISTRY)

    crash_plan = _crash_plan(args)
    if crash_plan is None:
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    try:
        _results, bench = run_experiments(
            experiment_ids,
            seed=args.seed,
            jobs=args.jobs,
            cache=cache,
            csv_dir=args.csv_dir,
            bench_path=args.bench,
            echo=print,
            crash_plan=crash_plan or None,
        )
    except CrashPlanError as error:
        print(f"--inject-crash: {error}", file=sys.stderr)
        return 2
    print(
        f"\n{bench['experiment_count']} experiments "
        f"({bench['cached_count']} cached) in "
        f"{bench['total_wall_s']:.2f}s wall with --jobs {bench['jobs']} "
        f"({bench['backend']} backend); "
        f"serial-equivalent {bench['serial_equivalent_s']:.2f}s "
        f"(computed-only speedup "
        f"{bench['speedup_vs_serial_computed_only']:.2f}x)"
    )
    if args.bench:
        print(f"wrote {args.bench}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.experiments.fig4 import run_fig4

    result, calibration = run_fig4(seed=args.seed)
    print(result.table())
    fit = calibration.hyperbola
    print(
        f"\nspecimen curve: V = {fit.a:.3f}/(d + {fit.b:.3f}) + {fit.c:.4f}"
    )
    return 0


def _cmd_islands(args: argparse.Namespace) -> int:
    from repro.core.islands import Placement, build_island_map
    from repro.hardware.adc import ADC
    from repro.sensors.gp2d120 import GP2D120

    placement = Placement(args.placement)
    try:
        island_map = build_island_map(
            GP2D120(rng=None),
            ADC(rng=None),
            args.entries,
            range_cm=(args.near, args.far),
            island_fill=args.fill,
            placement=placement,
        )
    except ValueError as error:
        print(f"repro islands: {error}", file=sys.stderr)
        return 2
    print(
        f"island map: {args.entries} entries over {args.near}-{args.far} cm, "
        f"fill {args.fill}, placement {placement.value}"
    )
    print(f"{'slot':>4} {'center_cm':>10} {'codes':>13} {'width':>6}")
    for slot in range(island_map.n_slots):
        island = island_map.island_for_slot(slot)
        print(
            f"{slot:>4} {island.center_distance_cm:>10.2f} "
            f"[{island.code_low:>4},{island.code_high:>4}] "
            f"{island.width_codes:>6}"
        )
    print(f"coverage: {island_map.coverage_fraction():.3f}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.apps.phonemenu import PhoneApp

    app = PhoneApp.create(seed=args.seed)
    device = app.device
    firmware = device.firmware
    print("DistScroll demo on the fictive phone menu (§6)\n")
    n_top = len(firmware.cursor.entries)
    for index in (0, n_top // 3, 2 * n_top // 3, n_top - 1):
        distance = firmware.aim_distance_for_index(index)
        device.hold_at(distance)
        device.run_for(0.5)
        print(f"  {distance:5.1f} cm -> {device.highlighted_label}")
    device.hold_at(firmware.aim_distance_for_index(0))
    device.run_for(0.5)
    device.click("select")
    print(f"\n  select -> entered {device.firmware.cursor.breadcrumb}")
    print("  top display:")
    for line in device.visible_menu():
        print(f"    |{line:<17}|")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.devtools import (
        LintEngine,
        default_rules,
        format_json,
        format_text,
    )

    if args.root is not None:
        root = Path(args.root)
    else:
        import repro

        root = Path(repro.__file__).parent
    if not root.is_dir():
        print(f"lint root {root} is not a directory", file=sys.stderr)
        return 2

    rules = default_rules()
    known = {rule.rule_id for rule in rules}
    if args.rules is not None:
        wanted = {
            token.strip().upper()
            for token in args.rules.split(",")
            if token.strip()
        }
        unknown = wanted - known
        if not wanted:
            print(
                "no rule ids given; "
                f"available: {', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2
        if unknown:
            print(
                f"unknown rule ids: {', '.join(sorted(unknown))}; "
                f"available: {', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2
        rules = tuple(r for r in rules if r.rule_id in wanted)
    engine = LintEngine(rules)
    findings = engine.lint_project(root)
    if args.format == "json":
        print(format_json(findings, engine.rule_ids(), str(root)), end="")
    else:
        print(format_text(findings, engine.rule_ids(), str(root)))
    return 1 if findings else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.perf import check_report, run_benchmarks
    from repro.perf.bench import BENCHMARKS, load_report

    if args.list:
        for name in BENCHMARKS:
            print(name)
        return 0

    only = None
    if args.only is not None:
        only = [
            token.strip() for token in args.only.split(",") if token.strip()
        ]
        if not only:
            print(f"--only {args.only!r} selects no benchmark", file=sys.stderr)
            return 2
        unknown = [name for name in only if name not in BENCHMARKS]
        if unknown:
            print(
                f"unknown benchmarks: {', '.join(unknown)}; "
                "see `python -m repro bench --list`",
                file=sys.stderr,
            )
            return 2

    try:
        report = run_benchmarks(only=only, quick=args.quick, echo=print)
    except KeyError as error:
        # Safety net behind the pre-validation above: run_benchmarks
        # raises KeyError for names it does not know, and a raw
        # traceback must never escape the CLI.  Exit 2 matches the
        # documented missing-baseline/bad-arguments code.
        print(
            f"{error.args[0]}; valid names: {', '.join(BENCHMARKS)}",
            file=sys.stderr,
        )
        return 2
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")

    if args.check is None:
        return 0
    baseline_path = Path(args.check)
    if not baseline_path.is_file():
        print(f"baseline {baseline_path} not found", file=sys.stderr)
        return 2
    failures = check_report(
        report,
        load_report(baseline_path),
        threshold=args.threshold,
        min_efficiency=args.min_efficiency,
    )
    if failures:
        print(
            f"\nperf gate FAILED against {baseline_path}:", file=sys.stderr
        )
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"perf gate passed against {baseline_path}")
    return 0


def _add_inject_crash_flag(parser: argparse.ArgumentParser) -> None:
    """The worker-fault flag shared by run and run-all."""
    parser.add_argument(
        "--inject-crash",
        action="append",
        default=None,
        metavar="EXPID:SHARD[:COUNT]",
        help="kill the worker executing this shard mid-flight COUNT "
        "times (needs --jobs >= 2; CI/fault-injection machinery)",
    )


def _bounded_int(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    return parse


_positive = _bounded_int(1)
_seed = _bounded_int(0)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one stderr line."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message} (see {self.prog} -h)\n")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = _Parser(
        prog="repro",
        description="DistScroll reproduction command-line interface",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    sub.add_parser(
        "experiments", help="list experiment ids"
    ).set_defaults(func=_cmd_experiments)

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment_id")
    run_parser.add_argument("--seed", type=_seed, default=0)
    run_parser.add_argument("--csv", default=None, help="also write CSV here")
    run_parser.add_argument(
        "--jobs",
        type=_positive,
        default=1,
        help="worker processes: 1 (default) runs the shards inline, N >= 2 "
        "on N work-queue workers (same rows either way)",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="read and write the on-disk shard cache, so an interrupted "
        "run recomputes only the missing shards",
    )
    _add_inject_crash_flag(run_parser)
    run_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="run observed and write a Chrome trace-event JSON here "
        "(byte-identical for any --jobs value; opens in Perfetto)",
    )
    run_parser.add_argument(
        "--users",
        type=_positive,
        default=None,
        metavar="N",
        help="STUDY1/ARENA: run the population-scale persona study (or "
        "technique arena) with N simulated users (streaming "
        "aggregation, O(1) memory; byte-identical for any --jobs "
        "value)",
    )
    run_parser.add_argument(
        "--personas",
        default=None,
        metavar="SPEC",
        help="persona population spec for --users (or ARENA): 'full', "
        "'bare', or 'dim=v1,v2;...' restrictions "
        "(e.g. 'glove=winter,arctic')",
    )
    run_parser.add_argument(
        "--battery",
        default=None,
        metavar="NAME",
        help="task battery for --users (or ARENA; default 'scrolltest')",
    )
    run_parser.set_defaults(func=_cmd_run)

    run_all_parser = sub.add_parser(
        "run-all",
        help="run the experiment suite in parallel with result caching",
    )
    run_all_parser.add_argument("--seed", type=_seed, default=0)
    run_all_parser.add_argument(
        "--jobs", type=_positive, default=1, help="worker processes (default 1)"
    )
    _add_inject_crash_flag(run_all_parser)
    run_all_parser.add_argument(
        "--only",
        default=None,
        metavar="ID,ID",
        help="comma-separated subset of experiment ids",
    )
    run_all_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk shard cache entirely",
    )
    run_all_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default $REPRO_CACHE_DIR or .repro_cache)",
    )
    run_all_parser.add_argument(
        "--csv-dir",
        default=None,
        help="write each experiment's CSV into this directory",
    )
    run_all_parser.add_argument(
        "--bench",
        default="BENCH_runner.json",
        help="timing report path (default BENCH_runner.json)",
    )
    run_all_parser.set_defaults(func=_cmd_run_all)

    calibrate_parser = sub.add_parser(
        "calibrate", help="print the Figure-4 sensor sweep"
    )
    calibrate_parser.add_argument("--seed", type=_seed, default=0)
    calibrate_parser.set_defaults(func=_cmd_calibrate)

    demo_parser = sub.add_parser("demo", help="scripted device walk-through")
    demo_parser.add_argument("--seed", type=_seed, default=0)
    demo_parser.set_defaults(func=_cmd_demo)

    islands_parser = sub.add_parser(
        "islands", help="print the island table for a configuration"
    )
    islands_parser.add_argument("--entries", type=_positive, default=10)
    islands_parser.add_argument("--near", type=float, default=5.0)
    islands_parser.add_argument("--far", type=float, default=28.0)
    islands_parser.add_argument("--fill", type=float, default=0.62)
    islands_parser.add_argument(
        "--placement",
        default="equal-distance",
        choices=[p.value for p in __import__(
            "repro.core.islands", fromlist=["Placement"]
        ).Placement],
    )
    islands_parser.set_defaults(func=_cmd_islands)

    lint_parser = sub.add_parser(
        "lint", help="run the reprolint invariant checks (REP001-REP008)"
    )
    lint_parser.add_argument(
        "--root",
        default=None,
        help="tree to lint (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default text)",
    )
    lint_parser.add_argument(
        "--rules",
        default=None,
        metavar="ID,ID",
        help="comma-separated subset of rule ids to run",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    bench_parser = sub.add_parser(
        "bench",
        help="run the headless perf suite with a regression gate",
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads, one round (the CI smoke setting)",
    )
    bench_parser.add_argument(
        "--only",
        default=None,
        metavar="NAME,NAME",
        help="comma-separated subset of benchmark names",
    )
    bench_parser.add_argument(
        "--output",
        default="BENCH_perf.json",
        help="report path (default BENCH_perf.json)",
    )
    bench_parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline BENCH_perf.json; exit 1 on "
        "regression",
    )
    bench_parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max tolerated throughput drop vs baseline (default 0.25)",
    )
    bench_parser.add_argument(
        "--min-efficiency",
        type=float,
        default=0.8,
        help="required scheduler worker utilisation on the skewed "
        "fan-out, full mode only (default 0.8)",
    )
    bench_parser.add_argument(
        "--list",
        action="store_true",
        help="list benchmark names and exit",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    trace_parser = sub.add_parser(
        "trace",
        help="run one experiment observed and summarize its sim-time spans",
    )
    trace_parser.add_argument("experiment_id")
    trace_parser.add_argument("--seed", type=_seed, default=0)
    trace_parser.add_argument(
        "--jobs", type=_positive, default=1, help="worker processes (default 1)"
    )
    trace_parser.add_argument(
        "--out", default=None, metavar="PATH", help="also write a trace file"
    )
    trace_parser.add_argument(
        "--format",
        choices=["chrome", "jsonl"],
        default="chrome",
        help="--out format: Chrome trace-event JSON (Perfetto) or JSONL",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    metrics_parser = sub.add_parser(
        "metrics",
        help="print the metric report of an observed run",
    )
    metrics_parser.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="experiment id (omit for a scripted device session)",
    )
    metrics_parser.add_argument("--seed", type=_seed, default=0)
    metrics_parser.add_argument(
        "--jobs", type=_positive, default=1, help="worker processes (default 1)"
    )
    metrics_parser.add_argument(
        "--no-histograms",
        action="store_true",
        help="suppress the per-bin histogram bars",
    )
    metrics_parser.set_defaults(func=_cmd_metrics)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
