"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENT_RUNNERS, main


class TestCLI:
    def test_experiments_lists_all_ids(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENT_RUNNERS:
            assert experiment_id in out

    def test_run_fig4(self, capsys):
        assert main(["run", "FIG4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "FIG4" in out
        assert "distance_cm" in out

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "fig5"]) == 0
        assert "FIG5" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "fig4.csv"
        assert main(["run", "FIG4", "--csv", str(path)]) == 0
        assert path.exists()
        assert path.read_text().startswith("distance_cm")

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "specimen curve" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "cm ->" in out
        assert "top display" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_users_on_non_study_is_hard_error(self, capsys):
        """Regression: ignored-flag combos must exit non-zero, not
        print a warning and run the wrong experiment."""
        assert main(["run", "FIG4", "--users", "5"]) == 2
        err = capsys.readouterr().err
        assert "--users is only meaningful for STUDY1" in err
        assert "distance_cm" not in capsys.readouterr().out

    def test_personas_without_users_is_hard_error(self, capsys):
        assert main(["run", "FIG4", "--personas", "full"]) == 2
        assert "add --users N" in capsys.readouterr().err

    def test_battery_without_users_is_hard_error(self, capsys):
        assert main(["run", "FIG5", "--battery", "scrolltest"]) == 2
        assert "add --users N" in capsys.readouterr().err

    def test_run_fleet_registry_entry(self, capsys):
        assert main(["run", "FLEET"]) == 0
        out = capsys.readouterr().out
        assert "FLEET" in out
        assert "surface" in out

    def test_every_registered_runner_is_callable(self):
        """The registry must not contain stale ids (import-time check)."""
        for experiment_id, runner in EXPERIMENT_RUNNERS.items():
            assert callable(runner), experiment_id


class TestParseTimeValidation:
    """Out-of-range numbers are usage errors (exit 2), never clamped."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "FIG4", "--jobs", "0"],
            ["run", "FIG4", "--jobs", "-2"],
            ["run-all", "--only", "FIG4", "--jobs", "0"],
            ["trace", "FIG4", "--jobs", "0"],
            ["metrics", "FIG4", "--jobs", "-1"],
            ["run", "FIG4", "--seed", "-1"],
            ["run-all", "--only", "FIG4", "--seed", "-1"],
            ["calibrate", "--seed", "-3"],
            ["run", "FIG4", "--jobs", "two"],
        ],
    )
    def test_out_of_range_number_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err or "--seed" in err

    def test_empty_only_selection_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run-all", "--only", ","]) == 2
        assert "selects no experiment" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_runner.json").exists()
