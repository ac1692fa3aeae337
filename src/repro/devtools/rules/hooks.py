"""REP005 — optional fault hooks must be null-checked before calling.

Every injectable hardware model exposes a ``fault_hook`` attribute that
defaults to ``None`` and is only populated when a
:class:`~repro.faults.FaultPlan` is installed.  The un-faulted path is
the common one, so an unguarded ``self.fault_hook(...)`` is a
``TypeError: 'NoneType' object is not callable`` waiting for the first
clean-hardware run that reaches it.

Recognised guard shapes (all used in the hardware layer today)::

    if self.fault_hook is not None:
        self.fault_hook(...)                       # guarded if-body

    if self.fault_hook is not None and self.fault_hook():   # and-chain
        ...

    x = self.fault_hook() if self.fault_hook is not None else None  # ifexp

Calls in an ``else`` branch of a guard, or with no guard in any
enclosing ``if`` / ``and`` / conditional expression, are flagged.
"""

from __future__ import annotations

import ast

from repro.devtools.base import Rule

__all__ = ["FaultHookGuardRule"]

#: Attribute/name identifiers treated as optional fault hooks.
_HOOK_NAMES = frozenset({"fault_hook"})

#: Node types that delimit the guard search (a guard outside the current
#: function cannot protect a call inside it).
_BOUNDARIES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ClassDef,
    ast.Module,
)


def _is_hook_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _HOOK_NAMES
    if isinstance(node, ast.Name):
        return node.id in _HOOK_NAMES
    return False


def _is_guard(expr: ast.AST) -> bool:
    """Whether ``expr`` establishes that a fault hook is callable."""
    # `hook is not None`  /  `hook != None`
    if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
        op = expr.ops[0]
        if isinstance(op, (ast.IsNot, ast.NotEq)):
            left, right = expr.left, expr.comparators[0]
            none_side = (
                isinstance(right, ast.Constant) and right.value is None
            ) or (isinstance(left, ast.Constant) and left.value is None)
            hook_side = _is_hook_expr(left) or _is_hook_expr(right)
            return none_side and hook_side
        return False
    # bare truthiness: `if self.fault_hook:`
    if _is_hook_expr(expr):
        return True
    # `callable(self.fault_hook)`
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "callable"
        and expr.args
        and _is_hook_expr(expr.args[0])
    ):
        return True
    # `A and B`: guarded if any conjunct is a guard.
    if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
        return any(_is_guard(value) for value in expr.values)
    return False


class FaultHookGuardRule(Rule):
    """Flag calls to optional fault hooks with no enclosing null check."""

    rule_id = "REP005"
    title = "optional fault hooks must be null-checked before calling"
    rationale = (
        "Fault-injection hooks are optional seams threaded through the"
        " hardware models (PR 1): calling one unguarded crashes every"
        " non-fault run with an `AttributeError` on `None`, and the crash"
        " only reproduces when the hook is absent — the exact inverse of"
        " the configuration being tested."
    )
    example = "self._fault_hook.on_sample(value)  # hook may be None"
    escape_hatch = (
        "Guard with `if self._fault_hook is not None:` (or an early"
        " return); a call site where the hook is provably always set"
        " takes `# reprolint: allow REP005 (reason)` on the flagged line."
    )

    def visit_Call(self, node: ast.Call) -> None:
        if _is_hook_expr(node.func) and not self._guarded(node):
            self.report(
                node,
                f"`{ast.unparse(node.func)}(...)` without a None guard:"
                " fault hooks default to None on un-faulted hardware —"
                " wrap the call in `if ... is not None`",
            )
        self.generic_visit(node)

    def _guarded(self, call: ast.Call) -> bool:
        """Walk enclosing nodes innermost-out looking for a guard."""
        child: ast.AST = call
        for parent in reversed(self.ancestors):
            if isinstance(parent, _BOUNDARIES):
                return False
            if isinstance(parent, ast.BoolOp) and isinstance(
                parent.op, ast.And
            ):
                # `guard and ... call ...`: conjuncts left of the one
                # containing the call run first and short-circuit.
                for value in parent.values:
                    if value is child or self._contains(value, call):
                        break
                    if _is_guard(value):
                        return True
            elif isinstance(parent, ast.IfExp):
                if self._under(parent.body, call) and _is_guard(parent.test):
                    return True
            elif isinstance(parent, ast.If):
                in_body = any(
                    self._under(stmt, call) for stmt in parent.body
                )
                if in_body and _is_guard(parent.test):
                    return True
            elif isinstance(parent, ast.While):
                in_body = any(
                    self._under(stmt, call) for stmt in parent.body
                )
                if in_body and _is_guard(parent.test):
                    return True
            child = parent
        return False

    @staticmethod
    def _contains(tree: ast.AST, target: ast.AST) -> bool:
        return any(node is target for node in ast.walk(tree))

    @classmethod
    def _under(cls, tree: ast.AST, target: ast.AST) -> bool:
        return cls._contains(tree, target)
