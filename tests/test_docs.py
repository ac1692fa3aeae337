"""Documentation is executable: doctests + generated-docs drift checks.

Three guarantees, all tier-1:

* Every ``>>>`` example in the README and under ``docs/`` actually runs
  and prints what it claims (``doctest.testfile`` over each markdown
  file that contains examples).  A doc edit that breaks an example
  fails here, not in a reader's terminal.
* ``docs/API.md`` matches what ``scripts/generate_api_docs.py`` renders
  from the committed sources (the same check CI runs as the doc-drift
  gate).  The byte-level assertion is version-pinned because
  ``ast.unparse`` output varies across interpreters; other versions
  still assert the generator runs and covers its target packages.
* EXPERIMENTS.md and ``docs/ARENA.md`` match what
  ``scripts/generate_experiments_md.py`` renders from the session's one
  registry pass (the ``registry_results`` fixture, the same results the
  experiment pins digest), so every table is ``repro run <ID> --seed 0``.
"""

from __future__ import annotations

import doctest
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose ``>>>`` examples must execute.  Discovered
#: dynamically so new docs with examples are picked up automatically.
DOC_FILES = sorted(
    path
    for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    if path.is_file() and ">>>" in path.read_text(encoding="utf-8")
)


def test_some_docs_carry_examples():
    """The observability guide keeps its worked examples."""
    assert REPO / "docs" / "OBSERVABILITY.md" in DOC_FILES


@pytest.mark.parametrize(
    "doc_path", DOC_FILES, ids=[p.name for p in DOC_FILES]
)
def test_markdown_doctests(doc_path):
    results = doctest.testfile(
        str(doc_path),
        module_relative=False,
        optionflags=doctest.ELLIPSIS | doctest.IGNORE_EXCEPTION_DETAIL,
    )
    assert results.attempted > 0, f"{doc_path.name}: no examples ran"
    assert results.failed == 0, (
        f"{doc_path.name}: {results.failed}/{results.attempted} "
        "doctest example(s) failed - run "
        f"`python -m doctest {doc_path.relative_to(REPO)} -v` locally"
    )


def _import_generator(name):
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        return __import__(name)
    finally:
        sys.path.pop(0)


class TestGeneratedDocs:
    """The committed generated docs match their generators."""

    def _generator(self):
        return _import_generator("generate_api_docs")

    def test_api_md_is_current(self):
        generator = self._generator()
        rendered = generator.render()
        committed = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
        if sys.version_info[:2] != (3, 11):
            pytest.skip(
                "API.md bytes are pinned to the CI interpreter "
                "(Python 3.11); ast.unparse renders differently here"
            )
        assert rendered == committed, (
            "docs/API.md is stale - run "
            "`python scripts/generate_api_docs.py`"
        )

    def test_api_md_covers_target_packages(self):
        committed = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
        for section in (
            "## `repro.sim.kernel`",
            "## `repro.obs.metrics`",
            "## `repro.runner.sharding`",
            "## `repro.faults`",
        ):
            assert section in committed

    def test_generator_check_mode(self, tmp_path, monkeypatch, capsys):
        """--check exits 1 against a stale file, 0 against a fresh one."""
        generator = self._generator()
        stale = tmp_path / "API.md"
        stale.write_text("out of date\n", encoding="utf-8")
        monkeypatch.setattr(generator, "OUTPUT", stale)
        monkeypatch.setattr(generator, "REPO", tmp_path)
        assert generator.main(["--check"]) == 1
        assert "stale" in capsys.readouterr().err
        assert generator.main([]) == 0  # regenerates
        assert generator.main(["--check"]) == 0


class TestTechniquesMd:
    """docs/TECHNIQUES.md matches the technique registry metadata."""

    def _generator(self):
        return _import_generator("generate_techniques_md")

    def test_techniques_md_is_current(self):
        generator = self._generator()
        rendered = generator.render()
        committed = (REPO / "docs" / "TECHNIQUES.md").read_text(
            encoding="utf-8"
        )
        assert rendered == committed, (
            "docs/TECHNIQUES.md is stale - run "
            "`python scripts/generate_techniques_md.py`"
        )

    def test_covers_every_registered_technique(self):
        from repro.baselines import ALL_TECHNIQUES

        committed = (REPO / "docs" / "TECHNIQUES.md").read_text(
            encoding="utf-8"
        )
        for key, cls in sorted(ALL_TECHNIQUES.items()):
            assert f"## `{key}` — {cls.info.title}" in committed

    def test_generator_check_mode(self, tmp_path, monkeypatch, capsys):
        generator = self._generator()
        stale = tmp_path / "TECHNIQUES.md"
        stale.write_text("out of date\n", encoding="utf-8")
        monkeypatch.setattr(generator, "OUTPUT", stale)
        monkeypatch.setattr(generator, "REPO", tmp_path)
        assert generator.main(["--check"]) == 1
        assert "stale" in capsys.readouterr().err
        assert generator.main([]) == 0
        assert generator.main(["--check"]) == 0


class TestExperimentsMd:
    """EXPERIMENTS.md holds one section per registry id, as `repro run` prints it."""

    def _generator(self):
        return _import_generator("generate_experiments_md")

    def test_experiments_md_is_current(self, registry_results):
        rendered = self._generator().render(registry_results)["EXPERIMENTS.md"]
        committed = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert rendered == committed, (
            "EXPERIMENTS.md is stale - run "
            "`python scripts/generate_experiments_md.py`"
        )

    def test_one_section_per_registry_id(self):
        from repro.runner.registry import REGISTRY

        ids = [eid for eid, _heading, _text in self._generator().SECTIONS]
        assert Counter(ids) == Counter(list(REGISTRY))

    def test_fig5_block_is_repro_run_stdout(self, capsys):
        from repro import cli

        headings = {eid: heading for eid, heading, _ in self._generator().SECTIONS}
        assert cli.main(["run", "FIG5", "--seed", "0"]) == 0
        stdout = capsys.readouterr().out
        text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split(f"## FIG5 — {headings['FIG5']}\n", 1)[1]
        assert section.split("```\n")[1] == stdout


class TestArenaMd:
    """docs/ARENA.md renders ARENA's result from the same registry pass."""

    def _generator(self):
        return _import_generator("generate_experiments_md")

    def test_arena_md_is_current(self, registry_results):
        rendered = self._generator().render(registry_results)["docs/ARENA.md"]
        committed = (REPO / "docs" / "ARENA.md").read_text(encoding="utf-8")
        assert rendered == committed, (
            "docs/ARENA.md is stale - run "
            "`python scripts/generate_experiments_md.py`"
        )

    def test_leaderboard_lists_every_technique(self):
        from repro.experiments.arena import ARENA_ROSTER

        committed = (REPO / "docs" / "ARENA.md").read_text(encoding="utf-8")
        for key in ARENA_ROSTER:
            assert key in committed

    def test_generator_check_mode(
        self, registry_results, tmp_path, monkeypatch, capsys
    ):
        """--check names each stale file; one pass renders both."""
        generator = self._generator()
        monkeypatch.setattr(generator, "run_registry", lambda: registry_results)
        monkeypatch.setattr(generator, "REPO", tmp_path)
        (tmp_path / "EXPERIMENTS.md").write_text("out of date\n")
        assert generator.main(["--check"]) == 1
        err = capsys.readouterr().err
        assert "EXPERIMENTS.md is stale" in err
        assert "docs/ARENA.md is stale" in err
        assert generator.main([]) == 0  # regenerates both
        assert generator.main(["--check"]) == 0
        (tmp_path / "docs" / "ARENA.md").write_text("out of date\n")
        capsys.readouterr()
        assert generator.main(["--check"]) == 1
        err = capsys.readouterr().err
        assert "docs/ARENA.md is stale" in err
        assert "EXPERIMENTS.md is stale" not in err
