"""The unit of lint output: one :class:`Finding` per violated invariant."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class Severity(enum.Enum):
    """How hard a finding fails the build."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        Rule id, e.g. ``"REP001"``.
    path:
        Posix-style path of the offending file, relative to the linted
        tree root (so findings are stable across checkouts).
    line, col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description of the violation.
    severity:
        :class:`Severity` of the violated rule.
    snippet:
        The stripped source line.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR
    snippet: str = ""

    def location(self) -> str:
        """``path:line:col`` for terminal output."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (schema pinned by the report tests)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "message": self.message,
            "snippet": self.snippet,
        }
