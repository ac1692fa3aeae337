"""The two-phase lint engine: project graph first, rules second.

Phase 1 parses every file once and extracts
:class:`~repro.devtools.graph.FileFacts` (imports, symbols, spawn
sites).  The facts link into a
:class:`~repro.devtools.graph.ProjectGraph` giving the flow rules
cross-module name resolution.

Phase 2 runs two rule kinds:

* per-file :class:`~repro.devtools.base.Rule` visitors (REP001–REP008),
  each seeing the project graph through its
  :class:`~repro.devtools.base.LintContext`;
* whole-project :class:`~repro.devtools.base.ProjectRule` checks
  (REP009), which also see the test tree.

Finally the engine drops every finding covered by an inline
``# reprolint: allow REP00X (reason)`` waiver — the one escape hatch,
applied the same way to every rule — and sorts the rest.  A file that
is not valid UTF-8 or does not parse becomes a ``REP000`` finding
instead of stopping the run.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Type

from repro.devtools.base import LintContext, ProjectRule, Rule, waived
from repro.devtools.findings import Finding, Severity
from repro.devtools.graph import FileFacts, ProjectGraph, extract_facts

__all__ = [
    "LintEngine",
    "ProjectView",
    "default_project_rules",
    "default_rules",
]

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache"})


def default_rules() -> tuple[Type[Rule], ...]:
    """The shipped per-file rule set (imported lazily to avoid cycles)."""
    from repro.devtools.rules import ALL_RULES

    return ALL_RULES


def default_project_rules() -> tuple[Type[ProjectRule], ...]:
    """The shipped whole-project rule set."""
    from repro.devtools.rules import PROJECT_RULES

    return PROJECT_RULES


@dataclass
class ProjectView:
    """What a :class:`ProjectRule` may inspect: the whole phase-1 view."""

    graph: ProjectGraph
    sources: Mapping[str, str]
    #: ``test file name -> text`` of the discovered test tree, or
    #: ``None`` when the linted tree has no tests directory (fixtures).
    tests_texts: Optional[Mapping[str, str]] = None

    def source_for(self, path: str) -> Optional[str]:
        return self.sources.get(path)


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
    """Runs per-file and whole-project rules over a source tree.

    Parameters
    ----------
    rules:
        Per-file rule *classes* instantiated per file; defaults to the
        shipped REP001–REP008 set.
    project_rules:
        Whole-project rule classes run once per lint; defaults to the
        shipped REP009 set.  Pass ``()`` to disable.
    """

    def __init__(
        self,
        rules: Optional[Iterable[Type[Rule]]] = None,
        project_rules: Optional[Iterable[Type[ProjectRule]]] = None,
    ) -> None:
        self.rules: tuple[Type[Rule], ...] = (
            tuple(rules) if rules is not None else default_rules()
        )
        self.project_rules: tuple[Type[ProjectRule], ...] = (
            tuple(project_rules)
            if project_rules is not None
            else default_project_rules()
        )

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str) -> list[Finding]:
        """Lint one source string as if it lived at relative ``path``.

        Single-file mode: the project graph contains just this file
        (imports resolve nowhere) and project rules are skipped.
        """
        return self._lint({path: source}, None, [])

    def lint_project(
        self, root: Path, *, tests_root: Optional[Path] = None
    ) -> list[Finding]:
        """Full two-phase lint of every ``*.py`` under ``root``.

        ``tests_root`` overrides test-tree discovery (``None`` =
        auto-discover next to or above ``root``).  Findings are sorted
        stably.
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
        if tests_root is None:
            tests_root = self._discover_tests_root(root)
        tests_texts = self._read_tests(root, tests_root, errors)
        return self._lint(sources, tests_texts, errors, run_project_rules=True)

    # ------------------------------------------------------------------
    # the two-phase core
    # ------------------------------------------------------------------
    def _lint(
        self,
        sources: Mapping[str, str],
        tests_texts: Optional[Mapping[str, str]],
        read_errors: Sequence[Finding],
        run_project_rules: bool = False,
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

        # --- phase 2a: per-file rules --------------------------------
        for facts in all_facts:
            path = facts.path
            context = LintContext(
                path=path, source=sources[path], project=graph, facts=facts
            )
            for rule_cls in self.rules:
                if rule_cls.applies_to(path):
                    findings.extend(rule_cls(context).run(trees[path]))

        # --- phase 2b: project rules ---------------------------------
        if run_project_rules and self.project_rules:
            view = ProjectView(
                graph=graph, sources=sources, tests_texts=tests_texts
            )
            for project_rule_cls in self.project_rules:
                findings.extend(project_rule_cls().run_project(view))

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
    def _discover_tests_root(root: Path) -> Optional[Path]:
        for candidate in (
            root / "tests",
            root.parent / "tests",
            root.parent.parent / "tests",
        ):
            if candidate.is_dir() and any(candidate.glob("test_*.py")):
                return candidate
        return None

    @staticmethod
    def _read_tests(
        root: Path, tests_root: Optional[Path], errors: list[Finding]
    ) -> Optional[dict[str, str]]:
        """Test-file texts keyed by ``tests_root``-relative name.

        A test file that is not UTF-8 is reported relative to the lint
        root (``../../tests/test_x.py`` for ``src/repro``) — once: one
        under the lint root was already reported as a source file.
        """
        if tests_root is None:
            return None
        texts: dict[str, str] = {}
        for test_file in sorted(tests_root.rglob("test_*.py")):
            if _SKIP_DIRS.intersection(test_file.parts):
                continue
            rel_path = Path(os.path.relpath(test_file, root)).as_posix()
            sink = errors if rel_path.startswith("../") else []
            text = _read_source(test_file, rel_path, sink)
            if text is not None:
                texts[test_file.relative_to(tests_root).as_posix()] = text
        return texts

    @staticmethod
    def sort(findings: Sequence[Finding]) -> list[Finding]:
        """Stable presentation order: path, line, column, rule id."""
        return sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule)
        )

    def rule_ids(self) -> list[str]:
        """Ids of all configured rules (per-file then project order)."""
        return [rule.rule_id for rule in self.rules] + [
            rule.rule_id for rule in self.project_rules
        ]
