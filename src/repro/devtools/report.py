"""Rendering a lint run: terminal text and machine-readable JSON.

The JSON schema is part of the tool's contract (CI and editor tooling
parse it) and is pinned by ``tests/test_reprolint.py``.  Version 3
dropped version 2's two baseline fields: inline waivers are the only
suppression, and a waived finding is never emitted, so every finding in
the report is a reported one::

    {
      "version": 3,
      "tool": "reprolint",
      "root": "<linted root>",
      "rules": ["REP001", ...],
      "counts": {"total": N, "reported": N},
      "findings": [ Finding.to_dict(), ... ]
    }
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.devtools.findings import Finding

__all__ = ["format_text", "format_json", "REPORT_VERSION"]

REPORT_VERSION = 3


def format_text(
    findings: Sequence[Finding], rules: Sequence[str], root: str
) -> str:
    """One line per finding plus a summary."""
    lines = []
    for finding in findings:
        lines.append(
            f"{finding.location()}: {finding.rule}"
            f" [{finding.severity.value}] {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    lines.append(
        f"reprolint: {len(findings)} finding(s) over {root}"
        f" [{', '.join(rules)}]"
    )
    return "\n".join(lines)


def format_json(
    findings: Sequence[Finding], rules: Sequence[str], root: str
) -> str:
    """The pinned JSON report."""
    payload = {
        "version": REPORT_VERSION,
        "tool": "reprolint",
        "root": root,
        "rules": list(rules),
        "counts": {"total": len(findings), "reported": len(findings)},
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(payload, indent=2) + "\n"
