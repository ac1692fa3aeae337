"""REP004 — sim-time discipline.

Two classes of time bugs the kernel cannot catch at runtime:

* **Float equality on simulated time.**  Sim times are floats built by
  accumulating deltas; ``now == end_s`` is true or false depending on
  rounding history and silently flips when an unrelated event lands in
  between.  Ordered comparisons (``<=``, ``<``) or an epsilon window are
  the correct forms — the firmware's confirm window does exactly that
  (``now - since < needed - 1e-9``).
* **Negative literal scheduling delays.**  ``sim.schedule(-0.1, cb)``
  raises at runtime, but only on the path that executes it; a linter
  catches the dead branch too.

The rule is deliberately name-driven: only identifiers that
conventionally denote simulated time (``now``, ``time_s``, ``t0``,
``start_s``, ``end_s``, ...) participate, so ordinary integer equality
(``chunk == 0``) is untouched.
"""

from __future__ import annotations

import ast

from repro.devtools.base import Rule

__all__ = ["SimTimeDisciplineRule"]

#: Bare identifiers that denote a simulated time in seconds.
_TIME_NAMES = frozenset(
    {
        "now",
        "t",
        "t0",
        "t1",
        "time_s",
        "start_s",
        "end_s",
        "when_s",
        "deadline_s",
        "sim_time",
        "candidate_since",
    }
)

#: Attribute names that denote a simulated time on any receiver
#: (``sim.now``, ``window.end_s``, ``self._candidate_since``).
_TIME_ATTRS = frozenset(
    {"now", "time_s", "start_s", "end_s", "sim_time", "_candidate_since"}
)

#: Methods that take a *relative delay* as first argument.
_DELAY_METHODS = frozenset({"schedule"})
#: Methods that take an *absolute time* as first argument.
_ABSOLUTE_METHODS = frozenset({"schedule_at"})


def _names_time(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _TIME_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_ATTRS
    return False


def _negative_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
        and node.operand.value > 0
    )


class SimTimeDisciplineRule(Rule):
    """Flag float-equality on sim times and negative scheduling delays."""

    rule_id = "REP004"
    title = "no == / != on sim times; no negative scheduling delays"
    rationale = (
        "Sim times are floats accumulated through different code paths:"
        " exact equality comparisons work until a refactor reorders one"
        " addition, then fail only on some inputs.  Negative scheduling"
        " delays silently reorder the event queue.  Both are classic"
        " sources of 'deterministic but wrong' traces."
    )
    example = "if event.time == deadline:  # float equality on sim time"
    escape_hatch = (
        "Compare with explicit tolerances or ordering (`<=`), and"
        " validate delays at the call site; a deliberate exact comparison"
        " (e.g. against a sentinel) takes"
        " `# reprolint: allow REP004 (reason)` on the flagged line."
    )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            time_side = None
            if _names_time(left):
                time_side, other = left, right
            elif _names_time(right):
                time_side, other = right, left
            if time_side is None:
                continue
            # Comparisons against None / strings are identity-ish checks,
            # not float equality.
            if isinstance(other, ast.Constant) and (
                other.value is None or isinstance(other.value, str)
            ):
                continue
            self.report(
                node,
                "float equality on a simulated time"
                f" (`{ast.unparse(time_side)}`): rounding history makes"
                " == / != unstable — compare with <= / >= or an epsilon"
                " window",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and node.args:
            first = node.args[0]
            if func.attr in _DELAY_METHODS and _negative_literal(first):
                self.report(
                    first,
                    f"negative delay literal in `{func.attr}(...)`: the"
                    " simulated clock only moves forward — scheduling in"
                    " the past raises SimulationError at runtime",
                )
            elif func.attr in _ABSOLUTE_METHODS and _negative_literal(first):
                self.report(
                    first,
                    f"negative absolute time in `{func.attr}(...)`: the"
                    " simulated clock starts at >= 0 and never rewinds",
                )
        self.generic_visit(node)
