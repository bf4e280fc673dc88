"""The ``wgrap store`` command group: import/export round-trips, bitwise.

The CSV and JSON snapshot formats both promise bitwise vector fidelity
(space-joined ``repr`` floats resp. JSON ``repr`` floats), and the SQLite
store keeps raw ``<f8`` blobs — so any chain of import/export hops must
reproduce the exact same problem file.  These tests drive the real CLI
entry point (``main(argv)``), not the library functions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.data.io import load_problem
from repro.store import SqliteProblemStore
from repro.store.csvio import export_problem_csv, import_problem_csv


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    assert (
        main(
            [
                "generate",
                str(path),
                "--papers", "9",
                "--reviewers", "11",
                "--topics", "7",
                "--group-size", "2",
                "--workload", "4",
                "--seed", "5",
            ]
        )
        == 0
    )
    return path


class TestImportExportJson:
    def test_json_round_trip_is_bitwise(self, problem_file, tmp_path, capsys):
        db = tmp_path / "p.db"
        out = tmp_path / "back.json"
        assert main(["store", "import", str(problem_file), str(db)]) == 0
        assert main(["store", "export", str(db), str(out)]) == 0
        original = json.loads(problem_file.read_text())
        recovered = json.loads(out.read_text())
        assert original == recovered  # bitwise: repr floats survive the blobs
        captured = capsys.readouterr().out
        assert "imported 11 reviewers" in captured
        assert "exported 11 reviewers" in captured

    def test_solve_from_store_matches_file(self, problem_file, tmp_path):
        db = tmp_path / "p.db"
        assert main(["store", "import", str(problem_file), str(db)]) == 0
        a_file = tmp_path / "a.json"
        a_store = tmp_path / "b.json"
        assert main(
            ["solve", str(problem_file), str(a_file), "--method", "Greedy"]
        ) == 0
        assert main(
            ["solve", "--store", str(db), str(a_store), "--method", "Greedy"]
        ) == 0
        assert json.loads(a_file.read_text()) == json.loads(a_store.read_text())

    def test_solve_rejects_both_sources(self, problem_file, tmp_path, capsys):
        db = tmp_path / "p.db"
        assert main(["store", "import", str(problem_file), str(db)]) == 0
        code = main(
            [
                "solve", "--store", str(db),
                str(problem_file), str(tmp_path / "x.json"),
                "--method", "Greedy",
            ]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err


class TestImportExportCsv:
    def test_csv_round_trip_is_bitwise(self, problem_file, tmp_path):
        db = tmp_path / "p.db"
        csv_dir = tmp_path / "snapshot"
        db2 = tmp_path / "q.db"
        out = tmp_path / "back.json"
        assert main(["store", "import", str(problem_file), str(db)]) == 0
        assert main(["store", "export", str(db), str(csv_dir)]) == 0
        assert (csv_dir / "meta.json").exists()
        assert main(["store", "import", str(csv_dir), str(db2), "--blocks"]) == 0
        assert main(["store", "export", str(db2), str(out)]) == 0
        assert json.loads(problem_file.read_text()) == json.loads(out.read_text())

    def test_csv_carries_bids(self, problem_file, tmp_path):
        problem = load_problem(str(problem_file))
        bids = (
            (problem.reviewer_ids[0], problem.paper_ids[0], 1.0),
            (problem.reviewer_ids[2], problem.paper_ids[3], 0.25),
        )
        csv_dir = export_problem_csv(problem, tmp_path / "snap", bids)
        reloaded, recovered = import_problem_csv(csv_dir)
        assert recovered == bids
        db = tmp_path / "with-bids.db"
        assert main(["store", "import", str(csv_dir), str(db)]) == 0
        store = SqliteProblemStore.open(db)
        try:
            assert store.load_bids() == tuple(sorted(bids))
        finally:
            store.close()

    def test_csv_vectors_are_bitwise(self, problem_file, tmp_path):
        problem = load_problem(str(problem_file))
        reloaded, _ = import_problem_csv(
            export_problem_csv(problem, tmp_path / "snap")
        )
        np.testing.assert_array_equal(
            np.asarray(problem.reviewer_matrix), np.asarray(reloaded.reviewer_matrix)
        )
        np.testing.assert_array_equal(
            np.asarray(problem.paper_matrix), np.asarray(reloaded.paper_matrix)
        )

    def test_import_rejects_non_snapshot_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="meta.json"):
            main(["store", "import", str(empty), str(tmp_path / "x.db")])


class TestInfo:
    def test_info_reports_rows_and_indexes(self, problem_file, tmp_path, capsys):
        db = tmp_path / "p.db"
        assert main(["store", "import", str(problem_file), str(db)]) == 0
        capsys.readouterr()
        assert main(["store", "info", str(db)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sqlite"
        assert payload["reviewer_rows"] == 11
        assert payload["paper_rows"] == 9
        assert "indexes" not in payload
        assert payload["schema_version"] == 1
