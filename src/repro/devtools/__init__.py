"""``reprolint`` — project-wide invariant linting for the simulation stack.

The simulator's headline guarantees (``--jobs 1 == --jobs N``
byte-identical CSVs, every fault injection paired with a recovery) rest
on code conventions: all randomness flows from a passed-in
``numpy.random.Generator`` on registered spawn-key streams, trace
channels are spelled from one registry, nothing inside the sim reads
wall-clock time, and float accumulation is exact.  This package enforces
those conventions mechanically, with a two-phase engine: phase 1 builds
a cross-module symbol/import graph over the whole tree, phase 2 runs
per-file rules on top of it.  The one escape hatch is an inline
``# reprolint: allow REP00X (reason)`` comment.

Layout
------
``findings``   :class:`Finding` / :class:`Severity` — what a rule emits.
``base``       :class:`Rule` (per-file ``ast.NodeVisitor`` with an
               ancestor stack), plus the inline-waiver parsing.
``graph``      phase 1: :class:`FileFacts` extraction and the
               :class:`ProjectGraph` (imports, symbols, spawn sites).
``dataflow``   intra-procedural helpers (assignment chains, RNG-draw
               and set-expression predicates).
``engine``     :class:`LintEngine` — the two-phase run, waiver
               filtering, sorted findings.
``report``     text and JSON rendering of a lint run.
``rules``      the shipped rule set (REP001–REP008).

Entry point: ``repro lint`` in :mod:`repro.cli`, or programmatically::

    from repro.devtools import LintEngine
    findings = LintEngine().lint_project(Path("src/repro"))
"""

from repro.devtools.base import LintContext, Rule
from repro.devtools.engine import LintEngine, default_rules
from repro.devtools.findings import Finding, Severity
from repro.devtools.report import format_json, format_text

__all__ = [
    "Finding",
    "LintContext",
    "LintEngine",
    "Rule",
    "Severity",
    "default_rules",
    "format_json",
    "format_text",
]
