"""One script, four front ends, the same answers.

Every front end serves a request through ``EngineSession.dispatch``, so a
fixed script must be answered identically by each of them:

* the stdio loop (:func:`repro.service.session.serve_stream`);
* ``wgrap session --output`` (the CLI's script replay);
* a TCP tenant without a write-ahead log;
* a durable TCP tenant (:class:`~repro.durability.DurabilityConfig`).

Every front end loads the same problem file.  Responses are compared
after :func:`tests.net_utils.strip_volatile`, which drops timings, trace
ids and the TCP envelope (``tenant``, ``seq``).  The script carries no
client ``seq`` keys, because idempotent replay exists only on durable
tenants, and no ``stats``, ``snapshot``, ``metrics`` or ``trace``
requests, because their payloads describe the front end itself.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.data.io import load_problem, save_problem
from repro.durability import DurabilityConfig
from repro.service.engine import AssignmentEngine
from repro.service.requests import paper_to_payload
from repro.service.session import serve_stream

from tests.conformance import GRID, late_paper, make_instance
from tests.net_utils import ServerHarness, strip_volatile


def _script(problem) -> list[dict]:
    """A Greedy solve, then journals, mutations and evaluates, two failing."""
    papers = list(problem.paper_ids)
    reviewers = list(problem.reviewer_ids)
    late = paper_to_payload(late_paper(problem, "front-end-late"))
    inline = paper_to_payload(late_paper(problem, "front-end-inline"))
    journal = {"kind": "journal", "top_k": 3, "pool_size": 5}
    return [
        {"kind": "solve", "solver": "Greedy", "id": 1},
        {**journal, "paper_id": papers[0], "id": 2},
        {"kind": "add_paper", "paper": late, "id": 3},
        {**journal, "paper_id": late["id"], "id": 4},
        {
            "kind": "update_bids",
            "bids": [[reviewers[0], papers[1], 1.0], [reviewers[2], late["id"], 0.5]],
            "id": 5,
        },
        {"kind": "evaluate", "include_per_paper": True, "id": 6},
        {"kind": "withdraw_reviewer", "reviewer_id": reviewers[4], "id": 7},
        {**journal, "paper_id": papers[2], "id": 8},
        {"kind": "withdraw_reviewer", "reviewer_id": "no-such-reviewer", "id": 9},
        {"kind": "journal", "top_k": 3, "id": 10},  # names no paper
        {"kind": "journal", "paper": inline, "top_k": 3, "id": 11},
        {"kind": "evaluate", "id": 12},
    ]


def _normalise(responses: list[dict]) -> list[dict]:
    return [json.loads(json.dumps(strip_volatile(response))) for response in responses]


def _stdio(problem_file, script) -> list[dict]:
    engine = AssignmentEngine(load_problem(str(problem_file)))
    output = io.StringIO()
    serve_stream(engine, [json.dumps(request) for request in script], output)
    return [json.loads(line) for line in output.getvalue().splitlines()]


def _session_cli(problem_file, script, tmp_path) -> list[dict]:
    script_file = tmp_path / "script.jsonl"
    script_file.write_text(
        "".join(json.dumps(request) + "\n" for request in script), encoding="utf-8"
    )
    output = tmp_path / "session-out.jsonl"
    assert main(
        ["session", str(problem_file), str(script_file), "--output", str(output)]
    ) == 0
    return [json.loads(line) for line in output.read_text().splitlines()]


def _tcp(problem_file, script, durability=None) -> list[dict]:
    harness = ServerHarness(durability=durability)
    harness.add_tenant(
        "conf", AssignmentEngine(load_problem(str(problem_file))), default=True
    )
    harness.start()
    try:
        with harness.client() as client:
            return [client.request(request) for request in script]
    finally:
        harness.stop()


def _tcp_plain(problem_file, script, tmp_path) -> list[dict]:
    return _tcp(problem_file, script)


def _tcp_durable(problem_file, script, tmp_path) -> list[dict]:
    return _tcp(problem_file, script, DurabilityConfig(root=tmp_path / "wal"))


FRONT_ENDS = {
    "session-cli": _session_cli,
    "tcp": _tcp_plain,
    "tcp-durable": _tcp_durable,
}


@pytest.fixture(scope="module")
def problem():
    return make_instance(GRID["compact"])


@pytest.fixture()
def problem_file(problem, tmp_path):
    path = tmp_path / "problem.json"
    save_problem(problem, str(path))
    return path


def test_the_script_exercises_successes_and_both_failure_paths(problem, problem_file):
    responses = _stdio(problem_file, _script(problem))
    failed = {
        response["id"]: response["error_type"]
        for response in responses
        if not response["ok"]
    }
    assert failed == {9: "unknown_id", 10: "request"}
    assert [response["id"] for response in responses] == list(range(1, 13))


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_front_end_answers_equal_the_stdio_loop(
    problem, problem_file, tmp_path, front_end
):
    script = _script(problem)
    expected = _normalise(_stdio(problem_file, script))
    answered = _normalise(FRONT_ENDS[front_end](problem_file, script, tmp_path))
    assert answered == expected
