#!/usr/bin/env python
"""Regenerate docs/LINTING.md from the reprolint rule metadata.

Run:  PYTHONPATH=src python scripts/generate_linting_md.py          # rewrite
      PYTHONPATH=src python scripts/generate_linting_md.py --check  # exit 1 if stale

Every rule class carries its own documentation (``rationale``,
``example``, ``escape_hatch`` class attributes); this script renders the
catalogue from those attributes so the docs cannot drift from the code.
The ``--check`` mode backs the CI doc-drift gate.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.devtools.rules import ALL_RULES, PROJECT_RULES

HEADER = """\
# LINTING — the reprolint rule catalogue

<!-- Generated by scripts/generate_linting_md.py — edit the rule
     classes under src/repro/devtools/rules/, not this file. -->

**reprolint** (`repro lint`) enforces the conventions the reproduction
guarantees rest on: byte-identical seeded runs, `--jobs 1 == --jobs N`,
scalar↔vectorized bit-equality.  The v2 engine lints in two phases:

1. **Phase 1 — project graph.**  Every file under `src/repro` is parsed
   once into `FileFacts` (imports, top-level symbols, `__all__`,
   `SeedSequence` spawn sites) and linked into a cross-module import
   graph with constant resolution, so flow-aware rules see through
   aliased imports.
2. **Phase 2 — rules.**  Per-file rules (REP001–REP008) run as AST
   visitors with the project graph in context; project rules (REP009)
   run once over the whole phase-1 view, including the test tree.

Useful invocations:

```console
repro lint                       # full tree; exit 1 on any finding
repro lint --rules REP006,REP007 # subset (unknown ids exit 2 with the valid list)
repro lint --root DIR            # another tree (e.g. a fixture)
repro lint --format json         # machine-readable report (version 3)
```

One escape hatch exists, honoured by every rule: an **inline waiver**
`# reprolint: allow REP00X (reason)` on the flagged line or the line
above.  The reason is mandatory — a bare allow is ignored — and should
say why the code is right, or what a deliberate host-time read feeds.
A file that is not valid UTF-8 or does not parse is reported as a
`REP000` finding.

"""

FOOTER = """\
## Adding a rule

Subclass `repro.devtools.base.Rule` (per-file) or `ProjectRule`
(whole-project) under `devtools/rules/`, fill in `rule_id`, `title`,
`rationale`, `example` and `escape_hatch` (this file is generated from
them), register the class in `devtools/rules/__init__.py`, and add
positive/negative tests plus — for CI-gated rules — a seeded fixture
tree under `tests/data/reprolint_fixtures/` that yields exactly one
finding.  The meta-test suite asserts the real tree stays clean and
that every inline waiver still covers a finding, so a rule that fires on
existing code ships with the fix or with reasoned inline waivers.
"""


def _scope_line(rule_cls: type) -> str:
    per_file = rule_cls in ALL_RULES
    parts = [
        f"*Severity:* {rule_cls.severity.value}",
        f"*scope:* {'per-file' if per_file else 'whole-project'}",
    ]
    exempt = getattr(rule_cls, "exempt_paths", ())
    if exempt:
        parts.append(
            "*exempt:* " + ", ".join(f"`{path}`" for path in exempt)
        )
    return " · ".join(parts)


def render() -> str:
    sections = [HEADER]
    for rule_cls in list(ALL_RULES) + list(PROJECT_RULES):
        sections.append(f"## {rule_cls.rule_id} — {rule_cls.title}\n")
        sections.append(_scope_line(rule_cls) + "\n")
        sections.append(rule_cls.rationale.strip() + "\n")
        if rule_cls.example:
            sections.append("Example violation:\n")
            sections.append(f"```python\n{rule_cls.example.rstrip()}\n```\n")
        sections.append(f"**Escape hatch:** {rule_cls.escape_hatch.strip()}\n")
    sections.append(FOOTER)
    return "\n".join(sections)


def main(argv: list[str]) -> int:
    check = "--check" in argv
    text = render()
    path = Path(__file__).resolve().parent.parent / "docs" / "LINTING.md"
    if check:
        current = path.read_text() if path.is_file() else ""
        if current != text:
            print(
                "docs/LINTING.md is stale - run "
                "`python scripts/generate_linting_md.py`",
                file=sys.stderr,
            )
            return 1
        print("docs/LINTING.md is up to date", file=sys.stderr)
        return 0
    path.write_text(text)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
