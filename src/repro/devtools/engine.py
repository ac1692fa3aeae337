"""The two-phase lint engine: project graph first, rules second.

Phase 1 parses every file once and extracts
:class:`~repro.devtools.graph.FileFacts` (imports, symbols, spawn
sites).  The facts link into a
:class:`~repro.devtools.graph.ProjectGraph` giving the flow rules
cross-module name resolution.

Phase 2 runs the per-file :class:`~repro.devtools.base.Rule` visitors
(REP001–REP008), each seeing the project graph through its
:class:`~repro.devtools.base.LintContext`.

Finally the engine drops every finding covered by an inline
``# reprolint: allow REP00X (reason)`` waiver — the one escape hatch,
applied the same way to every rule — and sorts the rest.  A file that
is not valid UTF-8 or does not parse becomes a ``REP000`` finding
instead of stopping the run.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Type

from repro.devtools.base import LintContext, Rule, waived
from repro.devtools.findings import Finding, Severity
from repro.devtools.graph import FileFacts, ProjectGraph, extract_facts

__all__ = [
    "LintEngine",
    "default_rules",
]

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache"})


def default_rules() -> tuple[Type[Rule], ...]:
    """The shipped per-file rule set (imported lazily to avoid cycles)."""
    from repro.devtools.rules import ALL_RULES

    return ALL_RULES


def _read_source(
    file_path: Path, rel_path: str, errors: list[Finding]
) -> Optional[str]:
    """The file's text, or ``None`` plus a ``REP000`` finding if not UTF-8."""
    try:
        return file_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        data = file_path.read_bytes()
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        errors.append(
            Finding(
                rule="REP000",
                path=rel_path,
                line=data.count(b"\n", 0, exc.start) + 1,
                col=exc.start - line_start,
                message=f"not valid UTF-8: {exc.reason} at byte {exc.start}",
                severity=Severity.ERROR,
            )
        )
        return None


class LintEngine:
    """Runs per-file rules over a source tree.

    Parameters
    ----------
    rules:
        Per-file rule *classes* instantiated per file; defaults to the
        shipped REP001–REP008 set.
    """

    def __init__(self, rules: Optional[Iterable[Type[Rule]]] = None) -> None:
        self.rules: tuple[Type[Rule], ...] = (
            tuple(rules) if rules is not None else default_rules()
        )

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str) -> list[Finding]:
        """Lint one source string as if it lived at relative ``path``.

        Single-file mode: the project graph contains just this file
        (imports resolve nowhere).
        """
        return self._lint({path: source}, [])

    def lint_project(self, root: Path) -> list[Finding]:
        """Full two-phase lint of every ``*.py`` under ``root``.

        Findings are sorted stably.
        """
        root = Path(root)
        errors: list[Finding] = []
        sources: dict[str, str] = {}
        for file_path in sorted(root.rglob("*.py")):
            if _SKIP_DIRS.intersection(file_path.parts):
                continue
            rel_path = file_path.relative_to(root).as_posix()
            source = _read_source(file_path, rel_path, errors)
            if source is not None:
                sources[rel_path] = source
        return self._lint(sources, errors)

    # ------------------------------------------------------------------
    # the two-phase core
    # ------------------------------------------------------------------
    def _lint(
        self,
        sources: Mapping[str, str],
        read_errors: Sequence[Finding],
    ) -> list[Finding]:
        findings = list(read_errors)

        # --- phase 1: facts + graph ----------------------------------
        all_facts: list[FileFacts] = []
        trees: dict[str, ast.Module] = {}
        for path in sorted(sources):
            source = sources[path]
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        rule="REP000",
                        path=path,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"syntax error: {exc.msg}",
                        severity=Severity.ERROR,
                        snippet="",
                    )
                )
                continue
            trees[path] = tree
            all_facts.append(extract_facts(path, source, tree))
        graph = ProjectGraph(all_facts)

        # --- phase 2: per-file rules ---------------------------------
        for facts in all_facts:
            path = facts.path
            context = LintContext(
                path=path, source=sources[path], project=graph, facts=facts
            )
            for rule_cls in self.rules:
                if rule_cls.applies_to(path):
                    findings.extend(rule_cls(context).run(trees[path]))

        # --- inline waivers, one check for every rule ----------------
        lines: dict[str, list[str]] = {}
        kept = []
        for finding in findings:
            source = sources.get(finding.path)
            if source is not None:
                if finding.path not in lines:
                    lines[finding.path] = source.splitlines()
                if waived(lines[finding.path], finding.line, finding.rule):
                    continue
            kept.append(finding)
        return self.sort(kept)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def sort(findings: Sequence[Finding]) -> list[Finding]:
        """Stable presentation order: path, line, column, rule id."""
        return sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule)
        )

    def rule_ids(self) -> list[str]:
        """Ids of all configured rules, in order."""
        return [rule.rule_id for rule in self.rules]
