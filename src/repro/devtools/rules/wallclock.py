"""REP001 — no wall-clock reads inside the simulation stack.

The kernel's contract (see :mod:`repro.sim.kernel`) is that *nothing*
consults wall-clock time: a seeded run must be bit-for-bit reproducible
and a cached result indistinguishable from a fresh one.  Any
``time.time()`` / ``perf_counter()`` / ``datetime.now()`` that leaks
into simulation or experiment code silently breaks that — results keep
looking plausible while depending on the host's load.

The runner's pool module legitimately measures wall time (it reports
suite wall-clock in ``BENCH_runner.json``), so it is exempt.  Any other
intentional clock read carries an inline
``# reprolint: allow REP001 (reason)`` waiver.
"""

from __future__ import annotations

import ast

from repro.devtools.base import Rule, attribute_chain

__all__ = ["NoWallClockRule"]

#: Clock-reading members of the stdlib ``time`` module.
_TIME_CLOCKS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock",
    }
)

#: Clock-reading members of ``datetime`` / ``datetime.datetime``.
_DATETIME_CLOCKS = frozenset({"now", "utcnow", "today"})


class NoWallClockRule(Rule):
    """Flag reads of the host's wall clock."""

    rule_id = "REP001"
    title = "no wall-clock reads outside benchmark/runner timing code"
    exempt_paths = ("runner/pool.py",)
    rationale = (
        "Simulated behaviour must depend only on sim time: a"
        " `time.time()`/`perf_counter()` read inside the simulation stack"
        " makes results vary run-to-run and machine-to-machine, breaking"
        " the byte-identical determinism contract."
    )
    example = "started = time.perf_counter()  # inside core/device.py"
    escape_hatch = (
        "Telemetry that genuinely measures wall time around the"
        " simulation (runner/bench plumbing) takes"
        " `# reprolint: allow REP001 (reason)` on the flagged line or the"
        " line above, naming what the reading feeds."
    )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_CLOCKS:
                    self.report(
                        node,
                        f"wall-clock import `from time import {alias.name}`:"
                        " simulation code must use the simulated clock"
                        " (`sim.now`), never host time",
                    )
        elif node.module == "datetime":
            # `from datetime import datetime` is only a problem at the
            # call site (`datetime.now()`), which visit_Attribute flags.
            pass
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = attribute_chain(node)
        if len(chain) >= 2:
            base, attr = chain[-2], chain[-1]
            if base == "time" and attr in _TIME_CLOCKS:
                self.report(
                    node,
                    f"wall-clock read `time.{attr}`: simulation code must"
                    " use the simulated clock (`sim.now`), never host time",
                )
            elif "datetime" in chain[:-1] and attr in _DATETIME_CLOCKS:
                self.report(
                    node,
                    f"wall-clock read `{'.'.join(chain)}`: simulated runs"
                    " must not depend on the host calendar/clock",
                )
        self.generic_visit(node)
