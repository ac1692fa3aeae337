"""REP007 — float accumulation and elementwise pow determinism.

Two hazards that PR 4 and PR 6 each paid for in postmortem time:

* **Naive float accumulation in result-producing code.**  ``sum()``
  over floats is order-dependent, so shard merges stop being
  associative and ``--jobs 1 != --jobs N``.  PR 6 introduced the exact
  integer accumulators in ``analysis/stats.py`` (``StreamingMoments``)
  precisely so merges are byte-identical; result-producing modules
  (``experiments/``, ``host/``, ``analysis/``) must route float sums
  through them (or ``math.fsum`` for a fixed, documented order).
  Integer counting idioms (``sum(1 for ...)``, ``sum(x > t ...)``) are
  exact and stay allowed.

* **Elementwise ``**`` / ``np.power`` on arrays in fast paths.**
  numpy's SIMD pow differs from libm's scalar pow by 1 ulp on some
  inputs (found by hypothesis in PR 4), so a vectorized fast path using
  array pow silently diverges from its scalar oracle.  Fast-path
  modules (``sensors/``, ``signal/``, ``core/``) must keep pow
  per-element — or carry an inline justification.

Escape hatch: ``# reprolint: allow REP007 (reason)`` on the flagged
line or the line above — the reason is mandatory.
"""

from __future__ import annotations

import ast

from repro.devtools.base import Rule, attribute_chain

__all__ = ["FloatDeterminismRule"]

#: Result-producing scopes where order-dependent float sums are flagged.
_SUM_PREFIXES = ("experiments", "host", "analysis")
#: Fast-path scopes where array pow is flagged.
_POW_PREFIXES = ("sensors", "signal", "core")


def _under(path: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        path == prefix or path.startswith(prefix + "/")
        for prefix in prefixes
    )


def _is_int_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


def _counting_element(node: ast.AST) -> bool:
    """Elements whose sum is exact: int literals, comparisons, bools."""
    if _is_int_literal(node):
        return True
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return True
    if isinstance(node, ast.Call):
        chain = attribute_chain(node.func)
        if chain and chain[-1] in ("len", "int"):
            return True
    if isinstance(node, ast.IfExp):
        return _counting_element(node.body) and _counting_element(node.orelse)
    return False


def _numpy_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attribute_chain(node.func)
    return len(chain) >= 2 and chain[0] in ("np", "numpy")


def _arrayish(node: ast.AST, _depth: int = 0) -> bool:
    """Syntactically certain to be a numpy array (conservative)."""
    if _depth > 4:
        return False
    if _numpy_call(node):
        return True
    if isinstance(node, ast.BinOp):
        return _arrayish(node.left, _depth + 1) or _arrayish(
            node.right, _depth + 1
        )
    if isinstance(node, ast.UnaryOp):
        return _arrayish(node.operand, _depth + 1)
    return False


class FloatDeterminismRule(Rule):
    """Flag order-dependent float sums and fast-path array pow."""

    rule_id = "REP007"
    title = "float sums go through exact accumulators; fast-path pow stays per-element"
    rationale = (
        "`sum()` over floats is evaluation-order dependent, so shard merges"
        " stop being associative and `--jobs 1 != --jobs N` (the PR 6"
        " hazard); `analysis/stats.py` exists to make accumulation exact."
        "  numpy's SIMD `**`/`np.power` differs from scalar libm pow by"
        " 1 ulp on some inputs (the PR 4 hazard), so array pow in a fast"
        " path silently diverges from its scalar oracle."
    )
    example = (
        "mean_ms = sum(trial_times) / len(trial_times)"
        "  # order-dependent float sum in experiments/"
    )
    escape_hatch = (
        "Route the accumulation through `analysis/stats.py`"
        " (`StreamingMoments`) or `math.fsum`; for a deliberate fixed-order"
        " sum add `# reprolint: allow REP007 (reason)` on the flagged line."
    )

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return _under(path, _SUM_PREFIXES) or _under(path, _POW_PREFIXES)

    # ------------------------------------------------------------------
    # order-dependent float sums
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and _under(self.context.path, _SUM_PREFIXES)
            and node.args
        ):
            argument = node.args[0]
            element = (
                argument.elt
                if isinstance(
                    argument, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                )
                else None
            )
            if element is None or not _counting_element(element):
                self.report(
                    node,
                    "order-dependent float `sum()` in a result-producing"
                    " module: use the exact accumulators in"
                    " analysis/stats.py (StreamingMoments) or math.fsum,"
                    " or waive with a reason if the order is fixed by"
                    " construction",
                )
        chain = attribute_chain(node.func)
        if (
            len(chain) >= 2
            and chain[0] in ("np", "numpy")
            and chain[-1] in ("power", "float_power")
            and _under(self.context.path, _POW_PREFIXES)
        ):
            self.report(
                node,
                f"`{'.'.join(chain)}` is SIMD pow (1-ulp divergence from"
                " scalar libm, the PR 4 hazard): keep pow per-element in"
                " fast paths or waive with a per-element justification",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # array pow in fast paths
    # ------------------------------------------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            isinstance(node.op, ast.Pow)
            and _under(self.context.path, _POW_PREFIXES)
            and _arrayish(node.left)
        ):
            self.report(
                node,
                "array `**` in a fast path is SIMD pow (1-ulp divergence"
                " from scalar libm): compute pow per-element or waive with"
                " a justification",
            )
        self.generic_visit(node)
