"""Error-path tests for the ``wgrap`` CLI and for solving loaded problems."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main, run
from repro.core.assignment import Assignment
from repro.data.io import load_problem, save_assignment
from repro.exceptions import ConfigurationError, InfeasibleAssignmentError


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    main(["generate", str(path), "--papers", "8", "--reviewers", "5",
          "--topics", "6", "--group-size", "2", "--seed", "1"])
    return path


class TestEvaluateErrorPaths:
    def test_evaluate_rejects_assignment_with_unknown_entities(self, problem_file, tmp_path):
        bad = tmp_path / "bad.json"
        save_assignment(Assignment([("ghost-reviewer", "paper-0000")]), bad)
        with pytest.raises(InfeasibleAssignmentError):
            main(["evaluate", str(problem_file), str(bad)])

    def test_evaluate_rejects_overloaded_assignment(self, problem_file, tmp_path):
        problem = load_problem(problem_file)
        reviewer_id = problem.reviewer_ids[0]
        overloaded = Assignment(
            (reviewer_id, paper_id) for paper_id in problem.paper_ids
        )
        path = tmp_path / "overloaded.json"
        save_assignment(overloaded, path)
        with pytest.raises(InfeasibleAssignmentError):
            main(["evaluate", str(problem_file), str(path)])


class TestCorruptFiles:
    def test_load_problem_with_wrong_version(self, tmp_path):
        path = tmp_path / "bad_problem.json"
        path.write_text(json.dumps({"format_version": 42}), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_problem(path)

    def test_generate_rejects_impossible_configuration(self, tmp_path):
        # 10 papers x group size 5 with 2 reviewers can never be feasible,
        # whatever the workload: each paper needs 5 distinct reviewers.
        from repro.exceptions import InfeasibleProblemError

        with pytest.raises(InfeasibleProblemError):
            main([
                "generate", str(tmp_path / "p.json"),
                "--papers", "10", "--reviewers", "2", "--topics", "6",
                "--group-size", "5",
            ])

    def test_journal_with_unknown_paper(self, problem_file):
        with pytest.raises(KeyError):
            main(["journal", str(problem_file), "no-such-paper"])


class TestRunEntryPoint:
    """``run``, the console entry point: ``main`` with library errors as ``error:`` lines."""

    def test_the_cli_own_error_lines_keep_their_code(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run(["wal", str(missing)]) == 2
        assert capsys.readouterr() == ("", f"error: no WAL root at {missing}\n")

    def test_other_exceptions_keep_their_traceback(self, monkeypatch):
        # Only a ReproError is an expected failure; anything else is a bug.
        def broken(argv=None):
            raise RuntimeError("not a library error")

        monkeypatch.setattr(cli, "main", broken)
        with pytest.raises(RuntimeError, match="not a library error"):
            cli.run([])

    def test_the_console_scripts_call_run(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1]
        scripts = scripts.split("\n[", 1)[0].strip().splitlines()
        assert scripts == ['repro = "repro.cli:run"', 'wgrap = "repro.cli:run"']
