"""REP006 — SeedSequence spawn-key streams must not collide.

The fleet device model and the persona engine both derive
dedicated RNG streams via ``SeedSequence(entropy, spawn_key=(DOMAIN,
...))``, built by the registry's primitive ``stream_rng(seed, DOMAIN,
...)`` (or ``stream_state``); the rule checks the domain of both call
forms.  Spawn keys are just tuples: two modules that pick the same
first element and overlapping trailing elements silently share bit
streams, coupling experiments that must be independent — a failure mode
that is invisible until a golden test diverges.  The fix is a registry:
every stream domain is an upper-case integer constant declared in
``repro/sim/streams.py``, and call sites must use the registry constant
(resolved across modules through the import graph, so aliasing is
fine).

The rule also flags *data-dependent draw counts* outside the approved
per-sample pattern: a ``while`` loop whose condition depends on a drawn
value and whose body draws again (rejection sampling) makes the number
of stream consumptions depend on the data, which breaks the
scalar↔vectorized bit-equality discipline (PR 4 hit exactly this in the
ADC corruption gate, and PR 7 had to pre-draw per sample because of
it).  The approved pattern is one-draw-per-sample with the loop bound
known before drawing; anything else needs an inline waiver.

Escape hatch: ``# reprolint: allow REP006 (reason)`` on the flagged
line or the line above — the reason is mandatory.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.devtools.base import LintContext, Rule
from repro.devtools.dataflow import FunctionFlow, is_rng_draw, iter_function_defs, names_in
from repro.devtools.findings import Finding
from repro.devtools.graph import (
    ProjectGraph,
    extract_facts,
    registry_path,
    resolve_spawn_sites,
    stream_registry,
)

__all__ = ["RngStreamCollisionRule"]


class _Loc:
    """A minimal location carrier for facts-derived findings."""

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


class RngStreamCollisionRule(Rule):
    """Flag unregistered, literal, or colliding spawn-key stream domains."""

    rule_id = "REP006"
    title = "SeedSequence spawn-key domains must come from the sim/streams registry"
    rationale = (
        "Spawn keys are plain tuples: two modules picking the same first"
        " element with overlapping trailing elements silently share RNG bit"
        " streams, coupling experiments that must be independent.  Declaring"
        " every stream domain once in `repro/sim/streams.py` makes collisions"
        " a lint error instead of a golden-test postmortem.  Data-dependent"
        " draw counts (rejection-sampling loops) are flagged too, because"
        " they break scalar↔vectorized stream equality (the PR 4/PR 7"
        " pre-draw discipline)."
    )
    example = (
        "seq = np.random.SeedSequence(seed, spawn_key=(0x1234, index))\n"
        "# 0x1234 is a bare literal, not a registered stream domain"
    )
    escape_hatch = (
        "Declare the domain as an upper-case integer constant in"
        " `repro/sim/streams.py` and import it; for a genuinely local"
        " stream (tests, one-off scripts) add"
        " `# reprolint: allow REP006 (reason)` on the flagged line."
    )

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._flow: Optional[FunctionFlow] = None

    # ------------------------------------------------------------------
    # phase-2 entry point
    # ------------------------------------------------------------------
    def run(self, tree: ast.Module) -> list[Finding]:
        graph = self.context.project
        facts = self.context.facts
        if facts is None:
            facts = extract_facts(self.context.path, self.context.source, tree)
        if graph is None:
            graph = ProjectGraph([facts])
        registry = stream_registry(graph)
        reg_path = registry_path(graph)

        if reg_path == self.context.path:
            self._check_registry_duplicates(facts)

        resolved = resolve_spawn_sites(graph, registry or {})
        ok_values: dict[int, set[str]] = {}
        for entry in resolved:
            if entry.status == "ok" and entry.value is not None:
                ok_values.setdefault(entry.value, set()).add(entry.path)
        for entry in resolved:
            if entry.path != self.context.path:
                continue
            loc = _Loc(entry.site.line, entry.site.col)
            if entry.status == "literal":
                self.report(
                    loc,
                    f"spawn-key domain is a {entry.detail}; declare an"
                    " upper-case constant in repro/sim/streams.py and use it",
                )
            elif entry.status == "opaque":
                self.report(
                    loc,
                    "spawn_key must be a literal tuple whose first element"
                    " is a registered stream-domain constant"
                    " (repro/sim/streams.py)",
                )
            elif entry.status in ("unresolved", "unregistered", "shadow"):
                self.report(loc, f"spawn-key domain: {entry.detail}")
            elif entry.status == "ok" and entry.value is not None:
                others = ok_values.get(entry.value, set()) - {entry.path}
                if others:
                    self.report(
                        loc,
                        f"stream domain {entry.detail}"
                        f" ({entry.value:#x}) is also spawned in"
                        f" {', '.join(sorted(others))}; overlapping trailing"
                        " key elements would share bit streams — give each"
                        " module its own registered domain",
                    )

        self.visit(tree)  # data-dependent draw-count pass
        return self.findings

    def _check_registry_duplicates(self, facts: object) -> None:
        from repro.devtools.graph import FileFacts

        assert isinstance(facts, FileFacts)
        seen: dict[int, str] = {}
        for name, info in sorted(
            facts.symbols.items(), key=lambda item: item[1].lineno
        ):
            if (
                info.kind == "const"
                and name.isupper()
                and isinstance(info.value, int)
                and not isinstance(info.value, bool)
            ):
                if info.value in seen:
                    self.report(
                        _Loc(info.lineno, 0),
                        f"stream domain {name} re-uses value"
                        f" {info.value:#x} already registered as"
                        f" {seen[info.value]} — domains must be pairwise"
                        " distinct",
                    )
                else:
                    seen[info.value] = name

    # ------------------------------------------------------------------
    # data-dependent draw counts (intra-procedural)
    # ------------------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def _check_function(
        self, function: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        flow = FunctionFlow(function)
        for loop in ast.walk(function):
            if not isinstance(loop, ast.While):
                continue
            condition_names = names_in(loop.test)
            drawn = any(
                is_rng_draw(expr)
                for name in condition_names
                if (expr := flow.bindings.get(name)) is not None
            )
            if not drawn:
                continue
            body_draws = any(
                is_rng_draw(statement) for statement in loop.body
            )
            if body_draws:
                self.report(
                    loop,
                    "while-loop condition depends on a drawn value and the"
                    " body draws again: the stream consumption count is"
                    " data-dependent, which breaks scalar↔vectorized"
                    " bit-equality — restructure to one draw per sample or"
                    " waive with a reason",
                )
