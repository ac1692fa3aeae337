"""REP008 — no unordered set iteration on result-producing paths.

Python sets iterate in hash order, which varies with insertion history
and (for strings, absent ``PYTHONHASHSEED`` pinning) across processes.
Any set iteration whose elements flow into traces, snapshots, CSV rows
or experiment results makes output ordering non-deterministic — the
exact class of bug the runner's ``--jobs 1 == --jobs N`` byte-equality
contract exists to prevent.  The rule flags ``for`` loops and
comprehension generators over (syntactic) set expressions, plus
``list()``/``tuple()`` materialisations of them, unless wrapped in
``sorted()``.

Dict iteration is deliberately **not** flagged: CPython dicts iterate
in insertion order (guaranteed since 3.7), and the tree's determinism
discipline relies on that — e.g. ``PERSONA_DIMENSIONS`` declaration
order *is* the draw order.

Escape hatch: ``# reprolint: allow REP008 (reason)`` on the flagged
line or the line above — the reason is mandatory.
"""

from __future__ import annotations

import ast
from typing import Optional, Union

from repro.devtools.base import Rule
from repro.devtools.dataflow import FunctionFlow, is_set_expression
from repro.devtools.findings import Finding

__all__ = ["IterationOrderRule", "set_iteration_sites"]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module]

#: Callables whose result does not depend on iteration order: a
#: comprehension feeding one of these directly is not a finding.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "set", "frozenset", "len", "min", "max", "any", "all", "sum"}
)


def set_iteration_sites(tree: ast.Module) -> list[tuple[ast.AST, ast.expr]]:
    """All ``(anchor_node, iterable_expr)`` set-iteration sites in a module.

    The anchor is the node findings are reported at (the ``for``
    statement / comprehension / call); the iterable is the set
    expression to wrap in ``sorted()``.
    """
    module_flow = FunctionFlow(tree)
    sites: list[tuple[ast.AST, ast.expr]] = []

    # Comprehensions that are the sole argument of an order-insensitive
    # consumer (`sorted(x.n for x in some_set)`) are fine as-is.
    absorbed: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_INSENSITIVE_CONSUMERS
            and len(node.args) == 1
            and isinstance(
                node.args[0],
                (ast.GeneratorExp, ast.ListComp, ast.SetComp),
            )
        ):
            absorbed.add(id(node.args[0]))

    scopes: list[_FunctionNode] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)

    for scope in scopes:
        flow = (
            module_flow
            if isinstance(scope, ast.Module)
            else FunctionFlow(scope)
        )

        def is_set(expr: Optional[ast.expr]) -> bool:
            return is_set_expression(
                expr, flow, module_symbols=module_flow.bindings
            )

        for node in _scope_walk(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set(node.iter):
                    sites.append((node, node.iter))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                if id(node) in absorbed or isinstance(node, ast.SetComp):
                    continue  # order-insensitive consumer / still a set
                for generator in node.generators:
                    if is_set(generator.iter):
                        sites.append((node, generator.iter))
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and len(node.args) == 1
                    and is_set(node.args[0])
                ):
                    sites.append((node, node.args[0]))
    return sites


def _scope_walk(scope: _FunctionNode) -> list[ast.AST]:
    """Nodes belonging to ``scope``, excluding nested function bodies."""
    collected: list[ast.AST] = []

    def descend(node: ast.AST, top: bool) -> None:
        if not top and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return
        collected.append(node)
        for child in ast.iter_child_nodes(node):
            descend(child, False)

    descend(scope, True)
    return collected


class IterationOrderRule(Rule):
    """Flag iteration over sets without an explicit ``sorted()``."""

    rule_id = "REP008"
    title = "set iteration must go through sorted() on result-producing paths"
    rationale = (
        "Sets iterate in hash order, which varies with insertion history"
        " and across processes; any set iteration feeding traces, snapshots"
        " or results breaks the runner's `--jobs 1 == --jobs N`"
        " byte-equality contract.  Dicts are exempt: CPython dict iteration"
        " is insertion-ordered and the tree relies on it."
    )
    example = (
        "for channel in {\"events\", \"faults\"}:"
        "  # hash-order iteration\n"
        "    trace.register(channel)"
    )
    escape_hatch = (
        "Wrap the iterable in `sorted(...)`;"
        " for order-insensitive folds add"
        " `# reprolint: allow REP008 (reason)` on the flagged line."
    )

    def run(self, tree: ast.Module) -> list[Finding]:
        seen: set[tuple[int, int]] = set()
        for anchor, _iterable in set_iteration_sites(tree):
            location = (
                getattr(anchor, "lineno", 1),
                getattr(anchor, "col_offset", 0),
            )
            if location in seen:
                continue  # one finding per anchor even with two set gens
            seen.add(location)
            self.report(
                anchor,
                "iteration over a set is hash-ordered: wrap the iterable in"
                " `sorted(...)` or"
                " waive with a reason if the fold is order-insensitive",
            )
        return self.findings
