"""REP009 — scalar↔vectorized dual paths must stay paired and tested.

The perf work deliberately maintains *two* implementations of some hot
paths: a scalar reference (the oracle) and a vectorized fast path, with
bit-equality tests welding them together.  That discipline rots
silently — someone renames the scalar method, drops it from
``__all__``, or deletes the equality test, and the oracle quietly stops
guarding anything.  This rule keeps the registry of known pairs
honest, project-wide:

* both halves of each pair still exist in their module,
* the owning top-level symbol is exported (``__all__`` or public name),
* at least one test file references **both** halves by name (the
  bit-equality test).

Pairs live in :data:`PARITY_PAIRS`.  Adding a new dual path means
adding one line here — which is exactly the point: the registry *is*
the documentation of which fast paths carry oracles.

Escape hatch: deleting a dual path legitimately (scalar path retired)
means removing its registry line in the same commit; a transitional
state takes an inline ``# reprolint: allow REP009 (reason)`` waiver.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.devtools.base import ProjectRule
from repro.devtools.findings import Finding, Severity

if TYPE_CHECKING:
    from repro.devtools.engine import ProjectView

__all__ = ["DualPathParityRule", "PARITY_PAIRS", "ParityPair"]


@dataclass(frozen=True)
class ParityPair:
    """One scalar↔vectorized pair the tree promises to keep bit-equal.

    ``scalar``/``vector`` are symbol names within ``module`` — dotted
    for methods (``"GP2D120.ideal_voltage"``), plain for top-level
    classes and functions.
    """

    module: str
    scalar: str
    vector: str
    note: str = ""


#: Every dual path in the tree.  REP009 verifies each entry exists, is
#: exported, and has a test referencing both names.
PARITY_PAIRS: tuple[ParityPair, ...] = (
    ParityPair(
        "sensors/gp2d120.py",
        "GP2D120.ideal_voltage",
        "GP2D120.ideal_voltage_array",
        "PR 4 vectorized transfer curve",
    ),
    ParityPair(
        "signal/filters.py",
        "ExponentialMovingAverage.update",
        "ExponentialMovingAverage.update_batch",
        "PR 4 filter fast path",
    ),
    ParityPair(
        "signal/filters.py",
        "MovingAverage.update",
        "MovingAverage.update_batch",
        "PR 4 filter fast path",
    ),
    ParityPair(
        "signal/filters.py",
        "MedianFilter.update",
        "MedianFilter.update_batch",
        "PR 4 filter fast path",
    ),
    ParityPair(
        "signal/filters.py",
        "HysteresisQuantizer.update",
        "HysteresisQuantizer.update_batch",
        "PR 4 filter fast path",
    ),
    ParityPair(
        "signal/filters.py",
        "RateLimiter.update",
        "RateLimiter.update_batch",
        "PR 4 filter fast path",
    ),
)


def _base_and_leaf(symbol: str) -> tuple[str, str]:
    base, _, leaf = symbol.partition(".")
    return base, (leaf or base)


class DualPathParityRule(ProjectRule):
    """Verify the scalar↔vectorized pair registry project-wide."""

    rule_id = "REP009"
    title = "registered scalar↔vectorized pairs exist, are exported, and share a bit-equality test"
    severity = Severity.ERROR
    rationale = (
        "The tree keeps deliberate duplicate implementations — a scalar"
        " oracle next to each vectorized fast path —"
        " welded together by bit-equality tests.  A rename, an `__all__`"
        " drop, or a deleted test silently disarms the oracle; the"
        " registry in `repro/devtools/rules/parity.py` plus this check"
        " keeps every pair existing, exported, and referenced by one test"
        " file."
    )
    example = (
        "# parity.py registers (\"sensors/gp2d120.py\","
        " \"GP2D120.ideal_voltage\", \"GP2D120.ideal_voltage_array\")\n"
        "# ...but sensors/gp2d120.py no longer defines ideal_voltage_array"
    )
    escape_hatch = (
        "Retiring a dual path legitimately means deleting its"
        " PARITY_PAIRS entry in the same commit; a transitional state"
        " takes `# reprolint: allow REP009 (reason)` on the flagged line"
        " (the pair's definition in its module)."
    )
    #: The registry (overridable in tests / fixture runs).
    pairs: ClassVar[tuple[ParityPair, ...]] = PARITY_PAIRS

    def run_project(self, view: "ProjectView") -> list[Finding]:
        findings: list[Finding] = []
        for pair in self.pairs:
            facts = view.graph.files.get(pair.module)
            if facts is None:
                continue  # pair's module not in the linted tree (fixtures)
            for half, symbol in (("scalar", pair.scalar), ("vector", pair.vector)):
                if symbol not in facts.symbols:
                    findings.append(
                        self._finding(
                            view,
                            pair,
                            1,
                            f"registered {half} path `{symbol}` is missing"
                            f" from {pair.module}; update the pair or"
                            " delete its PARITY_PAIRS entry in the same"
                            " commit",
                        )
                    )
                    continue
                base, _leaf = _base_and_leaf(symbol)
                exported = (
                    base in facts.exports
                    if facts.exports is not None
                    else not base.startswith("_")
                )
                if not exported:
                    findings.append(
                        self._finding(
                            view,
                            pair,
                            facts.symbols[symbol].lineno,
                            f"`{base}` (owner of {half} path `{symbol}`)"
                            f" is not exported from {pair.module}"
                            " (missing from __all__): dual paths are"
                            " public API",
                        )
                    )
            if (
                pair.scalar in facts.symbols
                and pair.vector in facts.symbols
                and view.tests_texts is not None
            ):
                tokens = self._tokens(pair)
                if not any(
                    all(
                        re.search(rf"\b{re.escape(token)}\b", text)
                        for token in tokens
                    )
                    for text in view.tests_texts.values()
                ):
                    findings.append(
                        self._finding(
                            view,
                            pair,
                            facts.symbols[pair.scalar].lineno,
                            "no single test file references both halves of"
                            f" the pair ({', '.join(sorted(tokens))}): the"
                            " bit-equality test welding"
                            f" `{pair.scalar}` to `{pair.vector}` is gone",
                        )
                    )
        return findings

    @staticmethod
    def _tokens(pair: ParityPair) -> frozenset[str]:
        scalar_base, scalar_leaf = _base_and_leaf(pair.scalar)
        vector_base, vector_leaf = _base_and_leaf(pair.vector)
        return frozenset(
            {scalar_base, scalar_leaf, vector_base, vector_leaf}
        )

    def _finding(
        self, view: "ProjectView", pair: ParityPair, line: int, message: str
    ) -> Finding:
        snippet = ""
        source = view.source_for(pair.module)
        if source is not None:
            lines = source.splitlines()
            if 1 <= line <= len(lines):
                snippet = lines[line - 1].strip()
        return Finding(
            rule=self.rule_id,
            path=pair.module,
            line=line,
            col=0,
            message=message,
            severity=self.severity,
            snippet=snippet,
        )
