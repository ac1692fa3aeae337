"""Rule base class and per-file lint context.

A rule is an :class:`ast.NodeVisitor` instantiated fresh for every file.
The base class maintains an ancestor stack during traversal (several
rules need to ask "is this call guarded by an enclosing ``if``?") and
provides :meth:`Rule.report` to emit findings with the offending source
line attached.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional, Sequence

from repro.devtools.findings import Finding, Severity

if TYPE_CHECKING:
    from repro.devtools.graph import FileFacts, ProjectGraph

__all__ = [
    "LintContext",
    "ProjectRule",
    "Rule",
    "attribute_chain",
    "waived",
    "waiver_reason",
]

#: The one escape hatch, honoured by every rule: a comment
#: ``# reprolint: allow REP00X (reason)`` on the flagged line or the line
#: directly above.  The reason is mandatory — a bare allow is ignored.
_WAIVER_RE = re.compile(
    r"#\s*reprolint:\s*allow\s+(REP\d{3})\b\s*[-—–:(]?\s*(.*?)\)?\s*$"
)


def waiver_reason(line: str, rule_id: str) -> Optional[str]:
    """The waiver reason on ``line`` for ``rule_id``, if present+justified."""
    match = _WAIVER_RE.search(line)
    if match is None or match.group(1) != rule_id:
        return None
    reason = match.group(2).strip()
    return reason or None


def waived(lines: Sequence[str], lineno: int, rule_id: str) -> bool:
    """Whether a reasoned waiver for ``rule_id`` covers 1-based ``lineno``."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines) and waiver_reason(
            lines[candidate - 1], rule_id
        ):
            return True
    return False


@dataclass
class LintContext:
    """Everything a rule may inspect about the file being linted."""

    #: Posix-style path relative to the linted tree root.
    path: str
    #: Full source text.
    source: str
    #: Source split into lines (for snippets); computed lazily.
    lines: list[str] = field(default_factory=list)
    #: Phase-1 project graph (``None`` outside ``lint_project`` runs).
    project: Optional["ProjectGraph"] = None
    #: This file's own phase-1 facts (``None`` when ``project`` is).
    facts: Optional["FileFacts"] = None

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def snippet(self, lineno: int) -> str:
        """The stripped source line at a 1-based line number."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule(ast.NodeVisitor):
    """One invariant checker.

    Subclasses set the class attributes and implement ``visit_*``
    methods as usual for :class:`ast.NodeVisitor`.  The engine calls
    :meth:`run` once per file; ``self.ancestors`` holds the chain of
    enclosing AST nodes (outermost first, **excluding** the node
    currently being visited) for flow-shape checks.
    """

    #: Unique id, ``REP###``.
    rule_id: ClassVar[str] = "REP000"
    #: One-line statement of the protected invariant.
    title: ClassVar[str] = ""
    severity: ClassVar[Severity] = Severity.ERROR
    #: Exact relative paths the rule never applies to.
    exempt_paths: ClassVar[tuple[str, ...]] = ()
    #: Why the invariant matters (rendered into docs/LINTING.md).
    rationale: ClassVar[str] = ""
    #: A minimal violating snippet (rendered into docs/LINTING.md).
    example: ClassVar[str] = ""
    #: The approved escape hatch (rendered into docs/LINTING.md).
    escape_hatch: ClassVar[str] = (
        "Add `# reprolint: allow REP00X (reason)` on the flagged line or"
        " the line above."
    )

    def __init__(self, context: LintContext) -> None:
        self.context = context
        self.findings: list[Finding] = []
        self.ancestors: list[ast.AST] = []

    # ------------------------------------------------------------------
    # engine interface
    # ------------------------------------------------------------------
    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether the rule runs on this relative path at all."""
        return path not in cls.exempt_paths

    def run(self, tree: ast.Module) -> list[Finding]:
        """Visit the whole module and return the findings."""
        self.visit(tree)
        return self.findings

    # ------------------------------------------------------------------
    # traversal with ancestor tracking
    # ------------------------------------------------------------------
    def generic_visit(self, node: ast.AST) -> None:
        self.ancestors.append(node)
        try:
            super().generic_visit(node)
        finally:
            self.ancestors.pop()

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        """The direct parent, valid while ``node`` is being visited."""
        return self.ancestors[-1] if self.ancestors else None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, node: ast.AST, message: str) -> None:
        """Emit one finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.findings.append(
            Finding(
                rule=self.rule_id,
                path=self.context.path,
                line=lineno,
                col=col,
                message=message,
                severity=self.severity,
                snippet=self.context.snippet(lineno),
            )
        )


class ProjectRule:
    """A whole-project invariant checker (phase-2, runs once per lint).

    Unlike :class:`Rule`, which is instantiated per file, a project rule
    sees the complete phase-1 view — the import graph, every file's
    facts and source — via the engine's
    :class:`~repro.devtools.engine.ProjectView`.  REP009 (dual-path
    parity) is the canonical example: it cross-references a registry of
    scalar↔vectorized pairs against module exports *and* the test tree.
    """

    rule_id: ClassVar[str] = "REP000"
    title: ClassVar[str] = ""
    severity: ClassVar[Severity] = Severity.ERROR
    rationale: ClassVar[str] = ""
    example: ClassVar[str] = ""
    escape_hatch: ClassVar[str] = (
        "Add `# reprolint: allow REP00X (reason)` on the flagged line or"
        " the line above."
    )

    def run_project(self, view: "ProjectView") -> list[Finding]:
        raise NotImplementedError


if TYPE_CHECKING:
    from repro.devtools.engine import ProjectView


def attribute_chain(node: ast.AST) -> Sequence[str]:
    """Dotted-name parts of a ``Name``/``Attribute`` chain, outermost first.

    ``np.random.default_rng`` -> ``("np", "random", "default_rng")``.
    Chains whose base is not a plain name (e.g. a call result) keep the
    attribute parts only: ``spawn(1)[0].generate_state`` ->
    ``("generate_state",)``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))
