"""Tests for the reprolint static-analysis framework (repro.devtools).

Per-rule fixture snippets (positive and negative), the pinned JSON
report schema, CLI exit codes, and the meta-tests: the real
``src/repro`` tree must lint clean, and every inline waiver in it must
still cover a real finding.
"""

from __future__ import annotations

import io
import json
import re
import textwrap
import tokenize
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.devtools import (
    LintEngine,
    Severity,
    default_rules,
    format_json,
    format_text,
)
from repro.devtools import engine as engine_module
from repro.devtools.base import waived, waiver_reason
from repro.devtools.rules import (
    ALL_RULES,
    FaultHookGuardRule,
    NoWallClockRule,
    SeededRngOnlyRule,
    SimTimeDisciplineRule,
    TraceChannelRegistryRule,
)
from repro.sim.channels import CHANNELS, EVENTS, FAULT_RECOVERY, FAULTS

SRC_ROOT = Path(repro.__file__).parent


def lint(source: str, path: str = "sim/example.py", rules=None):
    engine = LintEngine(rules)
    return engine.lint_source(textwrap.dedent(source), path)


def rule_ids(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# REP001 — no wall clock
# ---------------------------------------------------------------------------
class TestNoWallClock:
    def test_time_time_flagged(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            rules=[NoWallClockRule],
        )
        assert rule_ids(findings) == ["REP001"]
        assert findings[0].line == 5

    def test_perf_counter_and_datetime_now_flagged(self):
        findings = lint(
            """
            import time
            from datetime import datetime

            def f():
                a = time.perf_counter()
                b = datetime.now()
                return a, b
            """,
            rules=[NoWallClockRule],
        )
        assert len(findings) == 2

    def test_from_time_import_clock_flagged(self):
        findings = lint(
            "from time import perf_counter\n", rules=[NoWallClockRule]
        )
        assert rule_ids(findings) == ["REP001"]

    def test_innocent_time_use_not_flagged(self):
        findings = lint(
            """
            import time

            def f():
                time.sleep(0.0)  # not a clock *read*
                return "lunchtime"
            """,
            rules=[NoWallClockRule],
        )
        assert findings == []

    def test_runner_pool_flagged_unless_waived(self):
        read = "x = time.perf_counter()\n"
        waiver = "# reprolint: allow REP001 (run-report wall time)\n"
        for path in ("runner/pool.py", "sim/kernel.py"):
            flagged = lint("import time\n" + read, path=path, rules=[NoWallClockRule])
            assert rule_ids(flagged) == ["REP001"], path
            waived = "import time\n" + waiver + read
            assert lint(waived, path=path, rules=[NoWallClockRule]) == [], path


# ---------------------------------------------------------------------------
# REP002 — seeded RNG only
# ---------------------------------------------------------------------------
class TestSeededRngOnly:
    def test_stdlib_random_import_flagged(self):
        assert rule_ids(
            lint("import random\n", rules=[SeededRngOnlyRule])
        ) == ["REP002"]
        assert rule_ids(
            lint("from random import choice\n", rules=[SeededRngOnlyRule])
        ) == ["REP002"]

    def test_legacy_numpy_global_flagged(self):
        findings = lint(
            """
            import numpy as np

            def f():
                np.random.seed(0)
                return np.random.rand(3)
            """,
            rules=[SeededRngOnlyRule],
        )
        assert len(findings) == 2

    def test_legacy_from_import_flagged(self):
        findings = lint(
            "from numpy.random import randint\n", rules=[SeededRngOnlyRule]
        )
        assert rule_ids(findings) == ["REP002"]

    def test_seeded_generators_allowed(self):
        findings = lint(
            """
            import numpy as np

            def f(rng: np.random.Generator, seed: int):
                child = np.random.default_rng(seed)
                seq = np.random.SeedSequence(seed)
                return rng.random() + child.normal(), seq
            """,
            rules=[SeededRngOnlyRule],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# REP003 — trace-channel registry
# ---------------------------------------------------------------------------
class TestTraceChannelRegistry:
    def test_unregistered_literal_flagged(self):
        findings = lint(
            """
            def f(self, now, value):
                self.tracer.record("fautls", now, value)
            """,
            rules=[TraceChannelRegistryRule],
        )
        assert rule_ids(findings) == ["REP003"]
        assert "fautls" in findings[0].message

    def test_registered_literal_allowed(self):
        findings = lint(
            """
            def f(self, now, value):
                self.tracer.record("events", now, value)
                self._tracer.record("fault.recovery", now, value)
            """,
            rules=[TraceChannelRegistryRule],
        )
        assert findings == []

    def test_constant_reference_allowed(self):
        findings = lint(
            """
            from repro.sim.channels import EVENTS

            def f(tracer, now, value):
                tracer.record(EVENTS, now, value)
            """,
            rules=[TraceChannelRegistryRule],
        )
        assert findings == []

    def test_non_tracer_receivers_ignored(self):
        findings = lint(
            """
            def f(cache, mapping):
                cache.get("anything")
                mapping.record("whatever", 1, 2)
            """,
            rules=[TraceChannelRegistryRule],
        )
        assert findings == []

    def test_tracer_get_and_subscribe_checked(self):
        findings = lint(
            """
            def f(device):
                device.tracer.get("nope")
                device.tracer.subscribe("also-nope", print)
            """,
            rules=[TraceChannelRegistryRule],
        )
        assert len(findings) == 2

    def test_registry_matches_runtime_channels(self):
        """Every channel a faulted run actually records is registered."""
        from repro import DistScroll
        from repro.faults import FaultKind, FaultPlan, FaultWindow

        plan = FaultPlan(
            [FaultWindow(FaultKind.ADC_GLITCH, start_s=0.1, duration_s=0.3)]
        )
        device = DistScroll(
            {"A": ["x", "y"], "B": ["z"]}, seed=3, fault_plan=plan
        )
        device.hold_at(15.0)
        device.run_for(1.0)
        recorded = set(device.tracer.channels())
        assert recorded, "expected the run to record at least one channel"
        assert recorded <= set(CHANNELS)

    def test_constants_are_the_historic_strings(self):
        # Golden CSVs and serialized traces pin these exact values.
        assert EVENTS == "events"
        assert FAULTS == "faults"
        assert FAULT_RECOVERY == "fault.recovery"


# ---------------------------------------------------------------------------
# REP004 — sim-time discipline
# ---------------------------------------------------------------------------
class TestSimTimeDiscipline:
    def test_float_equality_on_time_flagged(self):
        findings = lint(
            """
            def f(sim, end_s):
                if sim.now == end_s:
                    return True
            """,
            rules=[SimTimeDisciplineRule],
        )
        assert rule_ids(findings) == ["REP004"]

    def test_not_equal_flagged(self):
        findings = lint(
            "def f(now, t0):\n    return now != t0\n",
            rules=[SimTimeDisciplineRule],
        )
        assert rule_ids(findings) == ["REP004"]

    def test_ordered_comparison_allowed(self):
        findings = lint(
            """
            def f(sim, end_s, time_s):
                return sim.now <= end_s and time_s < 4.0
            """,
            rules=[SimTimeDisciplineRule],
        )
        assert findings == []

    def test_non_time_equality_allowed(self):
        findings = lint(
            "def f(chunk, n):\n    return chunk == 0 and n != 3\n",
            rules=[SimTimeDisciplineRule],
        )
        assert findings == []

    def test_none_check_allowed(self):
        findings = lint(
            "def f(now):\n    return now == None\n",
            rules=[SimTimeDisciplineRule],
        )
        assert findings == []

    def test_negative_delay_literal_flagged(self):
        findings = lint(
            "def f(sim, cb):\n    sim.schedule(-0.5, cb)\n",
            rules=[SimTimeDisciplineRule],
        )
        assert rule_ids(findings) == ["REP004"]

    def test_negative_absolute_time_flagged(self):
        findings = lint(
            "def f(sim, cb):\n    sim.schedule_at(-1.0, cb)\n",
            rules=[SimTimeDisciplineRule],
        )
        assert rule_ids(findings) == ["REP004"]

    def test_positive_delay_allowed(self):
        findings = lint(
            "def f(sim, cb):\n    sim.schedule(0.5, cb)\n",
            rules=[SimTimeDisciplineRule],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# REP005 — fault-hook guard
# ---------------------------------------------------------------------------
class TestFaultHookGuard:
    def test_unguarded_call_flagged(self):
        findings = lint(
            """
            class ADC:
                def sample(self, t, code):
                    return self.fault_hook(t, 0, code)
            """,
            rules=[FaultHookGuardRule],
        )
        assert rule_ids(findings) == ["REP005"]

    def test_if_body_guard_allowed(self):
        findings = lint(
            """
            class Sensor:
                def read(self, t, v):
                    if self.fault_hook is not None:
                        override = self.fault_hook(t, v)
                        if override is not None:
                            return override
                    return v
            """,
            rules=[FaultHookGuardRule],
        )
        assert findings == []

    def test_and_chain_guard_allowed(self):
        findings = lint(
            """
            class Bus:
                def attempt(self):
                    if self.fault_hook is not None and self.fault_hook():
                        raise RuntimeError("nack")
            """,
            rules=[FaultHookGuardRule],
        )
        assert findings == []

    def test_ifexp_guard_allowed(self):
        findings = lint(
            """
            class RF:
                def send(self):
                    action = (
                        self.fault_hook()
                        if self.fault_hook is not None
                        else None
                    )
                    return action
            """,
            rules=[FaultHookGuardRule],
        )
        assert findings == []

    def test_truthiness_guard_allowed(self):
        findings = lint(
            """
            class Batt:
                def sag(self):
                    if self.fault_hook:
                        return self.fault_hook()
                    return 0.0
            """,
            rules=[FaultHookGuardRule],
        )
        assert findings == []

    def test_else_branch_flagged(self):
        findings = lint(
            """
            class Bad:
                def f(self):
                    if self.fault_hook is not None:
                        pass
                    else:
                        return self.fault_hook()
            """,
            rules=[FaultHookGuardRule],
        )
        assert rule_ids(findings) == ["REP005"]

    def test_guard_outside_function_does_not_leak(self):
        findings = lint(
            """
            class Bad:
                def f(self):
                    if self.fault_hook is not None:
                        def inner():
                            return self.fault_hook()
                        return inner
            """,
            rules=[FaultHookGuardRule],
        )
        assert rule_ids(findings) == ["REP005"]


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_becomes_finding(self):
        findings = lint("def broken(:\n")
        assert findings and findings[0].rule == "REP000"

    def test_findings_sorted_and_stable(self):
        source = """
            import random
            import time

            def f():
                return time.time()
            """
        first = lint(source)
        second = lint(source)
        assert first == second
        assert [f.line for f in first] == sorted(f.line for f in first)

    def test_lint_tree_skips_pycache(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("import random\n")
        assert LintEngine().lint_project(tmp_path) == []

    def test_non_utf8_source_becomes_finding(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "ok.py").write_text("x = 1\n")
        (sim / "bin.py").write_bytes(b"\xff\xfe")
        (finding,) = LintEngine().lint_project(tmp_path)
        assert (finding.rule, finding.path) == ("REP000", "sim/bin.py")
        assert (finding.line, finding.col) == (1, 0)
        assert "UTF-8" in finding.message
        # the CLI reports it like any finding instead of a traceback
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert "sim/bin.py:1:0: REP000" in capsys.readouterr().out

    def test_severity_is_error_by_default(self):
        findings = lint("import random\n")
        assert findings[0].severity is Severity.ERROR

    def test_all_rule_ids_unique(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)


# ---------------------------------------------------------------------------
# report formats
# ---------------------------------------------------------------------------
class TestReport:
    def test_json_schema(self):
        engine = LintEngine()
        findings = engine.lint_source("import random\n", "sim/x.py")
        payload = json.loads(
            format_json(findings, engine.rule_ids(), "src/repro")
        )
        assert payload["version"] == 3
        assert payload["tool"] == "reprolint"
        assert payload["root"] == "src/repro"
        assert payload["rules"] == [
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
        ]
        assert payload["counts"] == {"total": 1, "reported": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule",
            "path",
            "line",
            "col",
            "severity",
            "message",
            "snippet",
        }
        assert finding["rule"] == "REP002"
        assert finding["path"] == "sim/x.py"
        assert finding["severity"] == "error"

    def test_text_includes_location_and_summary(self):
        engine = LintEngine()
        findings = engine.lint_source("import random\n", "sim/x.py")
        text = format_text(findings, engine.rule_ids(), "src/repro")
        assert "sim/x.py:1:0: REP002" in text
        assert "reprolint: 1 finding(s) over src/repro" in text

# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestLintCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "clock.py").write_text("def f(sim):\n    return sim.now\n")
        assert main(["lint", "--root", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format_parses(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "clock.py").write_text(
            "import time\n\n\ndef f():\n    return time.time()\n"
        )
        code = main(["lint", "--root", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["tool"] == "reprolint"
        assert payload["counts"] == {"total": 1, "reported": 1}
        (finding,) = payload["findings"]
        assert (finding["rule"], finding["path"]) == ("REP001", "sim/clock.py")

    def test_seeded_violation_fails(self, tmp_path, capsys):
        bad = tmp_path / "sim"
        bad.mkdir()
        (bad / "clock.py").write_text(
            "import time\n\n\ndef f():\n    return time.time()\n"
        )
        code = main(["lint", "--root", str(tmp_path)])
        assert code == 1
        assert "REP001" in capsys.readouterr().out

    def test_rule_subset_filter(self, tmp_path, capsys):
        (tmp_path / "x.py").write_text("import random\nimport time\n")
        code = main(
            ["lint", "--root", str(tmp_path), "--rules", "REP001"]
        )
        # only REP001 ran, and `import time` alone is not a clock read
        assert code == 0
        assert main(
            ["lint", "--root", str(tmp_path), "--rules", "REP002"]
        ) == 1

    def test_unknown_rule_id_is_usage_error(self, tmp_path):
        assert main(
            ["lint", "--root", str(tmp_path), "--rules", "REP999"]
        ) == 2

    def test_help_lists_only_root_format_rules(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        flags = sorted(
            {token.rstrip(",") for token in out.split() if token.startswith("--")}
        )
        assert flags == ["--format", "--help", "--root", "--rules"]

    @pytest.mark.parametrize(
        "flag",
        [
            "--baseline=x.json",
            "--no-baseline",
            "--changed",
            "--fix",
            "--cache-dir=.cache",
            "--verbose",
        ],
    )
    def test_removed_flag_is_usage_error(self, tmp_path, flag, capsys):
        (tmp_path / "x.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--root", str(tmp_path), flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the meta-test: the repo itself must be clean
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def unwaived_tree_lint():
    """One lint of the real tree with inline waivers off.

    The tests below only inspect findings, so they share this run: the
    waived findings show which waivers are used, and filtering them out
    gives what the engine reports.  How long the lint takes is measured
    by ``repro bench`` (``lint-tree``), not here.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "waived", lambda *_: False)
        return LintEngine().lint_project(SRC_ROOT)


class TestRepoIsClean:
    def test_tree_lints_clean(self, unwaived_tree_lint):
        unwaived = unwaived_tree_lint
        lines = {}
        findings = []
        for finding in unwaived:
            path = SRC_ROOT / finding.path
            if path.is_file():
                if finding.path not in lines:
                    lines[finding.path] = path.read_text(
                        encoding="utf-8"
                    ).splitlines()
                if waived(lines[finding.path], finding.line, finding.rule):
                    continue
            findings.append(finding)
        assert findings == [], "findings:\n" + "\n".join(
            f"{f.location()} {f.rule} {f.message}" for f in findings
        )

    def test_every_inline_waiver_is_used(self, unwaived_tree_lint):
        """A waiver whose finding is gone is stale: delete it."""
        waivers = set()
        for path in sorted(SRC_ROOT.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = re.search(r"allow\s+(REP\d{3})", token.string)
                if match and waiver_reason(token.string, match.group(1)):
                    rel = path.relative_to(SRC_ROOT).as_posix()
                    waivers.add((match.group(1), rel, token.start[0]))
        assert waivers
        findings = unwaived_tree_lint
        covered = {(f.rule, f.path, f.line) for f in findings}
        stale = sorted(
            (rule, path, line)
            for rule, path, line in waivers
            if (rule, path, line) not in covered
            and (rule, path, line + 1) not in covered
        )
        assert stale == []

    def test_default_rules_are_all_rules(self):
        assert default_rules() == ALL_RULES
