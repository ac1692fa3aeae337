"""Tests for the reprolint v2 project-wide engine.

Covers the phase-1 import/symbol graph, the intra-procedural dataflow
helpers, the flow-aware rules REP006–REP008, the inline-waiver contract
of every shipped rule, the seeded CI fixture trees, the rule-id CLI
errors, and a hypothesis property pinning engine determinism across
repeated runs and file-creation order.
"""

from __future__ import annotations

import ast
import json
import shutil
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.devtools import LintEngine
from repro.devtools.dataflow import (
    FunctionFlow,
    is_rng_draw,
    is_set_expression,
)
from repro.devtools.graph import (
    ProjectGraph,
    extract_facts,
    resolve_spawn_sites,
    stream_registry,
)
from repro.devtools.rules import (
    ALL_RULES,
    FaultHookGuardRule,
    NoWallClockRule,
    SeededRngOnlyRule,
    SimTimeDisciplineRule,
    TraceChannelRegistryRule,
)
from repro.devtools.rules.floatdet import FloatDeterminismRule
from repro.devtools.rules.iterorder import (
    IterationOrderRule,
    set_iteration_sites,
)
from repro.devtools.rules.rngstreams import RngStreamCollisionRule

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "data" / "reprolint_fixtures"

REGISTRY_SOURCE = """\
PERSONA_STREAM = 0x9E37
TRIAL_STREAM = 0x79B9
"""


def facts_for(path: str, source: str):
    source = textwrap.dedent(source)
    return extract_facts(path, source, ast.parse(source))


def graph_of(**files: str) -> ProjectGraph:
    return ProjectGraph(
        [facts_for(path.replace("__", "/") + ".py", src) for path, src in files.items()]
    )


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def lint(source: str, path: str = "sim/example.py", rules=None):
    engine = LintEngine(rules)
    return engine.lint_source(textwrap.dedent(source), path)


def rule_ids(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# phase 1: facts extraction
# ---------------------------------------------------------------------------
class TestFactsExtraction:
    def test_captures_imports_symbols_and_exports(self):
        facts = facts_for(
            "sim/demo.py",
            """
            import numpy as np
            from repro.sim.streams import PERSONA_STREAM as STREAM

            __all__ = ["Engine", "LIMIT"]

            LIMIT = 42


            class Engine:
                def step(self):
                    return LIMIT
            """,
        )
        assert facts.parts == ("sim", "demo")
        modules = {record.module for record in facts.imports}
        assert "numpy" in modules
        assert "repro.sim.streams" in modules
        assert "__all__" not in facts.symbols
        assert facts.symbols["LIMIT"].value == 42
        assert "Engine" in facts.symbols
        assert "Engine.step" in facts.symbols

    def test_spawn_sites_classified(self):
        facts = facts_for(
            "sim/demo.py",
            """
            import numpy as np

            DOMAIN = 0x10


            def spawn(seed, index):
                a = np.random.SeedSequence(seed, spawn_key=(0x99, index))
                b = np.random.SeedSequence(seed, spawn_key=(DOMAIN, index))
                c = np.random.SeedSequence(seed, spawn_key=key_of(index))
                return a, b, c
            """,
        )
        kinds = sorted(site.domain_kind for site in facts.spawn_sites)
        assert kinds == ["literal", "name", "opaque"]

# ---------------------------------------------------------------------------
# phase 1: project graph
# ---------------------------------------------------------------------------
class TestProjectGraph:
    def test_resolve_module_by_suffix(self):
        graph = graph_of(sim__streams=REGISTRY_SOURCE)
        facts = graph.resolve_module("repro.sim.streams")
        assert facts is not None and facts.path == "sim/streams.py"
        assert graph.resolve_module("sim.streams") is facts
        assert graph.resolve_module("numpy") is None

    def test_resolve_constant_across_modules(self):
        graph = graph_of(
            sim__streams=REGISTRY_SOURCE,
            interaction__personas="""
            from repro.sim.streams import PERSONA_STREAM
            """,
        )
        facts = graph.files["interaction/personas.py"]
        resolved = graph.resolve_constant(facts, "PERSONA_STREAM")
        assert resolved is not None
        assert resolved.symbol.value == 0x9E37
        assert resolved.path == "sim/streams.py"

    def test_resolve_constant_follows_alias(self):
        graph = graph_of(
            sim__streams=REGISTRY_SOURCE,
            core__batch="""
            from repro.sim.streams import TRIAL_STREAM as LOCAL_STREAM
            """,
        )
        facts = graph.files["core/batch.py"]
        resolved = graph.resolve_constant(facts, "LOCAL_STREAM")
        assert resolved is not None and resolved.symbol.value == 0x79B9

# ---------------------------------------------------------------------------
# phase 1: spawn-site resolution
# ---------------------------------------------------------------------------
class TestSpawnResolution:
    def _graph(self, user_source: str) -> ProjectGraph:
        return graph_of(sim__streams=REGISTRY_SOURCE, sim__user=user_source)

    def test_registry_collected(self):
        graph = self._graph("X = 1")
        registry = stream_registry(graph)
        assert registry == {0x9E37: "PERSONA_STREAM", 0x79B9: "TRIAL_STREAM"}

    def test_registered_import_is_ok(self):
        graph = self._graph(
            """
            import numpy as np
            from repro.sim.streams import PERSONA_STREAM

            def f(seed):
                return np.random.SeedSequence(seed, spawn_key=(PERSONA_STREAM, 0))
            """
        )
        (site,) = [
            s for s in resolve_spawn_sites(graph) if s.path == "sim/user.py"
        ]
        assert site.status == "ok"
        assert site.value == 0x9E37

    def test_literal_and_unregistered(self):
        graph = self._graph(
            """
            import numpy as np

            ROGUE = 0x123

            def f(seed):
                a = np.random.SeedSequence(seed, spawn_key=(0x77, 0))
                b = np.random.SeedSequence(seed, spawn_key=(ROGUE, 0))
                return a, b
            """
        )
        statuses = sorted(
            s.status for s in resolve_spawn_sites(graph) if s.path == "sim/user.py"
        )
        assert statuses == ["literal", "unregistered"]

    def test_shadowed_registry_value(self):
        graph = self._graph(
            """
            import numpy as np

            PERSONA_STREAM = 0x9E37  # local copy, not the registry symbol

            def f(seed):
                return np.random.SeedSequence(seed, spawn_key=(PERSONA_STREAM, 0))
            """
        )
        (site,) = [
            s for s in resolve_spawn_sites(graph) if s.path == "sim/user.py"
        ]
        assert site.status == "shadow"


# ---------------------------------------------------------------------------
# dataflow helpers
# ---------------------------------------------------------------------------
class TestDataflow:
    def _flow(self, body: str) -> FunctionFlow:
        tree = ast.parse(textwrap.dedent(body))
        function = tree.body[0]
        assert isinstance(function, ast.FunctionDef)
        return FunctionFlow(function)

    def test_resolve_follows_chain(self):
        flow = self._flow(
            """
            def f():
                a = {1, 2}
                b = a
                c = b
                return c
            """
        )
        resolved = flow.resolve("c")
        assert isinstance(resolved, ast.Set)

    def test_is_set_expression_positive_forms(self):
        flow = self._flow(
            """
            def f(x):
                base = set(x)
                return base
            """
        )
        cases = [
            "{1, 2}",
            "set(x)",
            "frozenset(x)",
            "{v for v in x}",
            "a | b if is_set_operand else {1}",
        ]
        assert is_set_expression(ast.parse("{1} | other").body[0].value)
        for code in cases[:4]:
            node = ast.parse(code, mode="eval").body
            assert is_set_expression(node), code
        assert is_set_expression(ast.parse("base", mode="eval").body, flow)
        assert is_set_expression(
            ast.parse("base.union(other)", mode="eval").body, flow
        )

    def test_is_set_expression_negative_forms(self):
        for code in ["[1, 2]", "{1: 2}", "sorted(x)", "x.keys()", "f(x)"]:
            node = ast.parse(code, mode="eval").body
            assert not is_set_expression(node), code

    def test_is_rng_draw(self):
        assert is_rng_draw(ast.parse("rng.random()", mode="eval").body)
        assert is_rng_draw(
            ast.parse("float(self._rng.normal(0, 1))", mode="eval").body
        )
        assert not is_rng_draw(ast.parse("rng.spawn(3)", mode="eval").body)
        assert not is_rng_draw(ast.parse("math.sqrt(x)", mode="eval").body)


# ---------------------------------------------------------------------------
# REP006 — rng stream collisions
# ---------------------------------------------------------------------------
class TestRngStreamCollision:
    def _lint_tree(self, tmp_path: Path, files: dict[str, str]):
        write_tree(tmp_path, files)
        engine = LintEngine([RngStreamCollisionRule])
        return engine.lint_project(tmp_path)

    def test_literal_domain_flagged(self):
        findings = lint(
            """
            import numpy as np

            def f(seed):
                return np.random.SeedSequence(seed, spawn_key=(0x1234, 0))
            """,
            rules=[RngStreamCollisionRule],
        )
        assert rule_ids(findings) == ["REP006"]
        assert "literal" in findings[0].message

    def test_registered_constant_clean(self, tmp_path):
        findings = self._lint_tree(
            tmp_path,
            {
                "sim/streams.py": REGISTRY_SOURCE,
                "sim/user.py": textwrap.dedent(
                    """
                    import numpy as np
                    from repro.sim.streams import PERSONA_STREAM

                    def f(seed, i):
                        return np.random.SeedSequence(seed, spawn_key=(PERSONA_STREAM, i))
                    """
                ),
            },
        )
        assert findings == []

    def test_primitive_literal_domain_flagged(self):
        findings = lint(
            """
            from repro.sim.streams import stream_rng

            def f(seed, i):
                return stream_rng(seed, 0x1234, i)
            """,
            rules=[RngStreamCollisionRule],
        )
        assert rule_ids(findings) == ["REP006"]
        assert "literal" in findings[0].message

    def test_primitive_call_forms(self, tmp_path):
        """``stream_rng``/``stream_state`` name their domain second; a
        keyword domain resolves, a splatted one is opaque."""
        findings = self._lint_tree(
            tmp_path,
            {
                "sim/streams.py": REGISTRY_SOURCE,
                "sim/user.py": textwrap.dedent(
                    """
                    from repro.sim import streams
                    from repro.sim.streams import TRIAL_STREAM, stream_state

                    def f(seed, i):
                        return streams.stream_rng(seed, streams.PERSONA_STREAM, i)

                    def g(seed, i):
                        return stream_state(seed, domain=TRIAL_STREAM)

                    def h(args):
                        return stream_state(*args)
                    """
                ),
            },
        )
        assert [(f.rule, f.line) for f in findings] == [("REP006", 12)]
        assert "registered stream-domain constant" in findings[0].message

    def test_cross_module_collision_flagged(self, tmp_path):
        user = """
            import numpy as np
            from repro.sim.streams import PERSONA_STREAM

            def f(seed, i):
                return np.random.SeedSequence(seed, spawn_key=(PERSONA_STREAM, i))
            """
        findings = self._lint_tree(
            tmp_path,
            {
                "sim/streams.py": REGISTRY_SOURCE,
                "sim/user_a.py": textwrap.dedent(user),
                "sim/user_b.py": textwrap.dedent(user),
            },
        )
        assert len(findings) == 2  # one per colliding module
        assert all("also spawned in" in f.message for f in findings)

    def test_registry_duplicate_values_flagged(self, tmp_path):
        findings = self._lint_tree(
            tmp_path,
            {
                "sim/streams.py": "A_STREAM = 0x10\nB_STREAM = 0x10\n",
            },
        )
        assert rule_ids(findings) == ["REP006"]
        assert "pairwise distinct" in findings[0].message

    def test_data_dependent_draw_count_flagged(self):
        findings = lint(
            """
            def rejection_sample(rng):
                value = rng.random()
                while value > 0.5:
                    value = rng.random()
                return value
            """,
            rules=[RngStreamCollisionRule],
        )
        assert rule_ids(findings) == ["REP006"]
        assert "data-dependent" in findings[0].message

    def test_bounded_loop_clean(self):
        findings = lint(
            """
            def per_sample(rng, n):
                out = []
                for _ in range(n):
                    out.append(rng.random())
                return out
            """,
            rules=[RngStreamCollisionRule],
        )
        assert findings == []

    def test_waiver_suppresses(self):
        findings = lint(
            """
            import numpy as np

            def f(seed):
                # reprolint: allow REP006 (one-off fixture stream, never merged)
                return np.random.SeedSequence(seed, spawn_key=(0x1234, 0))
            """,
            rules=[RngStreamCollisionRule],
        )
        assert findings == []

    def test_waiver_requires_reason(self):
        findings = lint(
            """
            import numpy as np

            def f(seed):
                # reprolint: allow REP006
                return np.random.SeedSequence(seed, spawn_key=(0x1234, 0))
            """,
            rules=[RngStreamCollisionRule],
        )
        assert rule_ids(findings) == ["REP006"]


# ---------------------------------------------------------------------------
# REP007 — float determinism
# ---------------------------------------------------------------------------
class TestFloatDeterminism:
    def test_float_sum_in_experiments_flagged(self):
        findings = lint(
            "def f(xs):\n    return sum(xs)\n",
            path="experiments/report.py",
            rules=[FloatDeterminismRule],
        )
        assert rule_ids(findings) == ["REP007"]

    def test_counting_sum_clean(self):
        findings = lint(
            "def f(xs):\n    return sum(1 for x in xs if x > 0)\n",
            path="experiments/report.py",
            rules=[FloatDeterminismRule],
        )
        assert findings == []

    def test_len_sum_clean(self):
        findings = lint(
            "def f(rows):\n    return sum(len(r) for r in rows)\n",
            path="host/report.py",
            rules=[FloatDeterminismRule],
        )
        assert findings == []

    def test_exact_accumulator_module_flagged_unless_waived(self):
        waiver = "    # reprolint: allow REP007 (sums int counts)\n"
        source = "def f(xs):\n{}    return sum(xs)\n"
        for path in ("analysis/stats.py", "experiments/example.py"):
            flagged = lint(source.format(""), path=path, rules=[FloatDeterminismRule])
            assert rule_ids(flagged) == ["REP007"], path
            waived = source.format(waiver)
            assert lint(waived, path=path, rules=[FloatDeterminismRule]) == [], path

    def test_out_of_scope_path_clean(self):
        findings = lint(
            "def f(xs):\n    return sum(xs)\n",
            path="obs/export.py",
            rules=[FloatDeterminismRule],
        )
        assert findings == []

    def test_numpy_pow_in_sensors_flagged(self):
        findings = lint(
            """
            import numpy as np

            def f(v):
                return np.asarray(v) ** 1.3
            """,
            path="sensors/model.py",
            rules=[FloatDeterminismRule],
        )
        assert rule_ids(findings) == ["REP007"]

    def test_np_power_call_flagged(self):
        findings = lint(
            """
            import numpy as np

            def f(v):
                return np.power(v, 1.3)
            """,
            path="signal/filters.py",
            rules=[FloatDeterminismRule],
        )
        assert rule_ids(findings) == ["REP007"]

    def test_scalar_pow_clean(self):
        findings = lint(
            "def f(x):\n    return x ** 2\n",
            path="sensors/model.py",
            rules=[FloatDeterminismRule],
        )
        assert findings == []

    def test_waiver_on_same_line(self):
        findings = lint(
            "def f(rows):\n"
            "    return sum(r[1] for r in rows)"
            "  # reprolint: allow REP007 (integer tick counts)\n",
            path="experiments/report.py",
            rules=[FloatDeterminismRule],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# REP008 — iteration order
# ---------------------------------------------------------------------------
class TestIterationOrder:
    def test_for_over_set_literal_flagged(self):
        findings = lint(
            "def f():\n    for x in {1, 2, 3}:\n        print(x)\n",
            rules=[IterationOrderRule],
        )
        assert rule_ids(findings) == ["REP008"]

    def test_sorted_wrap_clean(self):
        findings = lint(
            "def f():\n    for x in sorted({1, 2, 3}):\n        print(x)\n",
            rules=[IterationOrderRule],
        )
        assert findings == []

    def test_list_of_set_flagged(self):
        findings = lint(
            "def f(xs):\n    return list({x for x in xs})\n",
            rules=[IterationOrderRule],
        )
        assert rule_ids(findings) == ["REP008"]

    def test_comprehension_over_set_variable_flagged(self):
        findings = lint(
            """
            def f(xs):
                seen = set(xs)
                return [x + 1 for x in seen]
            """,
            rules=[IterationOrderRule],
        )
        assert rule_ids(findings) == ["REP008"]

    def test_genexp_absorbed_by_sorted_clean(self):
        findings = lint(
            "def f(kinds):\n"
            '    return ", ".join(sorted(k.name for k in set(kinds)))\n',
            rules=[IterationOrderRule],
        )
        assert findings == []

    def test_set_comprehension_from_set_clean(self):
        findings = lint(
            "def f(xs):\n    return {x.lower() for x in set(xs)}\n",
            rules=[IterationOrderRule],
        )
        assert findings == []

    def test_dict_iteration_clean(self):
        findings = lint(
            "def f(d):\n    for k in d:\n        print(k)\n",
            rules=[IterationOrderRule],
        )
        assert findings == []

    def test_set_iteration_sites_shared_helper(self):
        tree = ast.parse("for x in {1, 2}:\n    pass\n")
        sites = set_iteration_sites(tree)
        assert len(sites) == 1
        _, iterable = sites[0]
        assert isinstance(iterable, ast.Set)


# ---------------------------------------------------------------------------
# inline waivers: the one escape hatch, honoured by every rule
# ---------------------------------------------------------------------------
#: One violating tree per shipped rule: rule class, files, flagged file.
WAIVER_CASES = {
    "REP001": (
        NoWallClockRule,
        {"sim/clock.py": "import time\n\n\ndef f():\n    return time.time()\n"},
        "sim/clock.py",
    ),
    "REP002": (SeededRngOnlyRule, {"sim/x.py": "import random\n"}, "sim/x.py"),
    "REP003": (
        TraceChannelRegistryRule,
        {
            "sim/x.py": "def f(self, now, value):\n"
            '    self.tracer.record("fautls", now, value)\n'
        },
        "sim/x.py",
    ),
    "REP004": (
        SimTimeDisciplineRule,
        {
            "sim/x.py": "def f(sim, end_s):\n"
            "    if sim.now == end_s:\n"
            "        return True\n"
        },
        "sim/x.py",
    ),
    "REP005": (
        FaultHookGuardRule,
        {
            "hardware/adc.py": "class ADC:\n"
            "    def sample(self, t, code):\n"
            "        return self.fault_hook(t, 0, code)\n"
        },
        "hardware/adc.py",
    ),
    "REP006": (
        RngStreamCollisionRule,
        {
            "sim/user.py": "import numpy as np\n\n\ndef f(seed):\n"
            "    return np.random.SeedSequence(seed, spawn_key=(0x1234, 0))\n"
        },
        "sim/user.py",
    ),
    "REP007": (
        FloatDeterminismRule,
        {"experiments/report.py": "def f(xs):\n    return sum(xs)\n"},
        "experiments/report.py",
    ),
    "REP008": (
        IterationOrderRule,
        {"sim/x.py": "for x in {3, 1, 2}:\n    print(x)\n"},
        "sim/x.py",
    ),
}


def _lint_case(root: Path, rule_cls, files: dict[str, str]):
    write_tree(root, files)
    return LintEngine([rule_cls]).lint_project(root)


class TestInlineWaivers:
    def test_every_shipped_rule_has_a_case(self):
        assert sorted(WAIVER_CASES) == [cls.rule_id for cls in ALL_RULES]

    @pytest.mark.parametrize("rule_id", sorted(WAIVER_CASES))
    def test_waiver_contract(self, tmp_path, rule_id):
        """A reasoned waiver on the flagged line or the line above
        suppresses the finding; a bare one or another rule's does not."""
        rule_cls, files, path = WAIVER_CASES[rule_id]
        (finding,) = _lint_case(tmp_path / "unwaived", rule_cls, files)
        assert finding.rule == rule_id and finding.path == path
        other = "REP002" if rule_id == "REP001" else "REP001"
        reasoned = f"# reprolint: allow {rule_id} (reviewed: deliberate)"

        def waive(comment: str, above: bool) -> dict[str, str]:
            lines = textwrap.dedent(files[path]).splitlines()
            flagged = lines[finding.line - 1]
            if above:
                indent = flagged[: len(flagged) - len(flagged.lstrip())]
                lines.insert(finding.line - 1, indent + comment)
            else:
                lines[finding.line - 1] = f"{flagged}  {comment}"
            return {**files, path: "\n".join(lines) + "\n"}

        for name, comment, above, expected in (
            ("same-line", reasoned, False, 0),
            ("line-above", reasoned, True, 0),
            ("no-reason", f"# reprolint: allow {rule_id}", False, 1),
            ("other-rule", reasoned.replace(rule_id, other), False, 1),
        ):
            findings = _lint_case(tmp_path / name, rule_cls, waive(comment, above))
            assert [f.rule for f in findings] == [rule_id] * expected, name


# ---------------------------------------------------------------------------
# seeded CI fixtures
# ---------------------------------------------------------------------------
class TestSeededFixtures:
    @pytest.mark.parametrize(
        "name, rule",
        [
            ("rep006", "REP006"),
            ("rep007", "REP007"),
            ("rep008", "REP008"),
        ],
    )
    def test_fixture_yields_exactly_one_finding(self, name, rule):
        root = FIXTURES / name
        engine = LintEngine()
        findings = engine.lint_project(root)
        matching = [f for f in findings if f.rule == rule]
        assert len(matching) == 1, [f.to_dict() for f in findings]

    @pytest.mark.parametrize(
        "name, rule",
        [
            ("rep006", "REP006"),
            ("rep007", "REP007"),
            ("rep008", "REP008"),
        ],
    )
    def test_fixture_via_cli_rules_filter(self, name, rule, capsys):
        code = main(
            [
                "lint",
                "--root",
                str(FIXTURES / name),
                "--rules",
                rule,
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["rule"] for f in payload["findings"]] == [rule]


# ---------------------------------------------------------------------------
# CLI v2 surface
# ---------------------------------------------------------------------------
class TestCliV2:
    def test_unknown_rule_id_exits_2_listing_valid(self, capsys):
        code = main(["lint", "--rules", "REP999"])
        captured = capsys.readouterr()
        assert code == 2
        for rid in ("REP001", "REP006", "REP008"):
            assert rid in captured.err

    def test_empty_rules_exits_2(self, capsys):
        code = main(["lint", "--rules", ","])
        assert code == 2
        assert "no rule ids" in capsys.readouterr().err

# ---------------------------------------------------------------------------
# determinism properties
# ---------------------------------------------------------------------------
TREE_WITH_FINDINGS = {
    "sim/streams.py": REGISTRY_SOURCE,
    "sim/user.py": """
        import numpy as np
        from repro.sim.streams import PERSONA_STREAM

        def f(seed, i):
            return np.random.SeedSequence(seed, spawn_key=(PERSONA_STREAM, i))
        """,
    "experiments/report.py": """
        def mean(xs):
            return sum(xs) / len(xs)
        """,
}

FIXTURE_FILES = {
    "sim/streams.py": REGISTRY_SOURCE,
    "sim/user.py": TREE_WITH_FINDINGS["sim/user.py"],
    "experiments/report.py": TREE_WITH_FINDINGS["experiments/report.py"],
    "obs/export.py": (FIXTURES / "rep008" / "obs" / "export.py").read_text(
        encoding="utf-8"
    ),
    "tools/mixer.py": (
        FIXTURES / "rep002_rep008" / "tools" / "mixer.py"
    ).read_text(encoding="utf-8"),
}


def _payload(findings) -> list[dict]:
    return [f.to_dict() for f in findings]


class TestEngineDeterminism:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        subset=st.sets(
            st.sampled_from(sorted(FIXTURE_FILES)), min_size=1, max_size=5
        ),
        data=st.data(),
    )
    def test_findings_pure_function_of_tree(self, subset, data):
        """Repeated runs, a fresh engine, and the order the files were
        created in all produce byte-identical findings."""
        tmp = Path(tempfile.mkdtemp(prefix="reprolint-prop-"))
        try:
            tree = write_tree(
                tmp / "tree", {k: FIXTURE_FILES[k] for k in subset}
            )
            engine = LintEngine()
            first = _payload(engine.lint_project(tree))
            assert _payload(engine.lint_project(tree)) == first
            assert _payload(LintEngine().lint_project(tree)) == first

            shuffled = data.draw(st.permutations(sorted(subset)))
            reordered = write_tree(
                tmp / "reordered", {k: FIXTURE_FILES[k] for k in shuffled}
            )
            assert _payload(engine.lint_project(reordered)) == first
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_identical_lines_each_reported(self):
        source = (
            "def f(xs):\n    return sum(xs)\n"
            "def g(xs):\n    return sum(xs)\n"
        )
        engine = LintEngine([FloatDeterminismRule])
        findings = engine.lint_source(source, "experiments/report.py")
        assert [(f.line, f.snippet) for f in findings] == [
            (2, "return sum(xs)"),
            (4, "return sum(xs)"),
        ]


# ---------------------------------------------------------------------------
# rule metadata (feeds docs/LINTING.md)
# ---------------------------------------------------------------------------
class TestRuleMetadata:
    @pytest.mark.parametrize("rule_cls", ALL_RULES)
    def test_every_rule_documents_itself(self, rule_cls):
        assert rule_cls.rule_id.startswith("REP")
        assert rule_cls.title
        assert rule_cls.rationale
        assert rule_cls.example
        assert rule_cls.escape_hatch

    def test_rule_ids_unique_and_sorted(self):
        ids = [cls.rule_id for cls in ALL_RULES]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
