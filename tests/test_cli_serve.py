"""Tests for the ``wgrap serve`` / ``wgrap session`` front ends."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.data.io import load_engine_snapshot
from repro.service.engine import AssignmentEngine
from repro.service.session import serve_stream


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    exit_code = main(
        ["generate", str(path), "--papers", "10", "--reviewers", "6",
         "--topics", "8", "--group-size", "2", "--seed", "3"]
    )
    assert exit_code == 0
    return path


def _serve(problem_file, lines):
    """Run the JSON-lines loop over a scripted input; return decoded responses."""
    from repro.data.io import load_problem

    engine = AssignmentEngine(load_problem(problem_file))
    output = io.StringIO()
    serve_stream(engine, iter(lines), output)
    return engine, [json.loads(line) for line in output.getvalue().splitlines()]


class TestServeStream:
    def test_generate_solve_journal_evaluate_round_trip(self, problem_file):
        engine, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "solve", "solver": "SDGA", "id": 1}),
                json.dumps({"kind": "journal", "paper_id": "paper-0000", "id": 2}),
                json.dumps({"kind": "evaluate", "id": 3}),
                json.dumps({"kind": "shutdown", "id": 4}),
            ],
        )
        assert [r["ok"] for r in responses] == [True, True, True, True]
        assert [r["id"] for r in responses] == [1, 2, 3, 4]

        solve, journal, evaluate, shutdown = responses
        assert solve["payload"]["solver"] == "SDGA"
        assert solve["payload"]["score"] > 0
        group = journal["payload"]["groups"][0]
        assert group["rank"] == 1
        assert len(group["reviewer_ids"]) == engine.problem.group_size
        assert journal["payload"]["shortlist"]
        assert evaluate["payload"]["score"] == pytest.approx(
            solve["payload"]["score"], abs=1e-6
        )
        assert shutdown["payload"] == {"shutdown": True}

    def test_mutations_and_stats_over_the_wire(self, problem_file):
        late = {"id": "late", "vector": [0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.1]}
        engine, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "solve", "solver": "Greedy"}),
                json.dumps({"kind": "add_paper", "paper": late,
                            "reviewer_workload": 6}),
                json.dumps({"kind": "withdraw_reviewer",
                            "reviewer_id": "reviewer-0000"}),
                json.dumps({"kind": "stats"}),
            ],
        )
        assert all(r["ok"] for r in responses)
        add = responses[1]["payload"]
        assert add["affected_papers"] == ["late"]
        assert add["num_papers"] == 11
        withdraw = responses[2]["payload"]
        assert withdraw["num_reviewers"] == 5
        stats = responses[3]["payload"]
        assert stats["engine"]["revision"] == 2
        assert stats["engine"]["cache"]["full_builds"] <= 1
        assert engine.problem.num_papers == 11

    def test_delta_and_prune_stats_over_the_wire(self, problem_file):
        """The stats payload exposes the view-maintenance and prune counters.

        The journal request is an old client's: its ``prune`` field is
        accepted and ignored.
        """
        late = {"id": "late", "vector": [0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.1]}
        engine, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "solve", "solver": "Greedy"}),
                json.dumps({"kind": "add_paper", "paper": late,
                            "reviewer_workload": 6}),
                json.dumps({"kind": "solve", "solver": "Greedy"}),
                json.dumps({"kind": "journal", "paper_id": "paper-0003",
                            "prune": 4}),
                json.dumps({"kind": "stats"}),
            ],
        )
        assert all(r["ok"] for r in responses)
        delta = responses[-1]["payload"]["engine"]["delta"]
        assert set(delta) == {
            "recompiles", "delta_applies", "conflict_patches",
            "prune_certified", "prune_fallbacks",
        }
        # the warmed solve -> add_paper -> solve path is delta-maintained:
        # one compile for the chain, one delta apply for the late paper
        assert delta["recompiles"] == 1
        assert delta["delta_applies"] == 1
        # Greedy's default shortlist width covers all 6 reviewers, so it
        # prunes nothing, and the journal query ignores ``prune``: neither
        # counter moves
        assert delta["prune_certified"] == 0
        assert delta["prune_fallbacks"] == 0
        assert delta == engine.stats()["delta"]

    def test_shutdown_stops_the_loop(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "shutdown"}),
                json.dumps({"kind": "solve", "solver": "SDGA"}),
            ],
        )
        assert len(responses) == 1

    def test_malformed_lines_do_not_kill_the_server(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                "this is not json",
                json.dumps(["a", "list"]),
                json.dumps({"kind": "teleport"}),
                json.dumps({"kind": "journal"}),  # neither paper_id nor paper
                json.dumps({"kind": "journal", "paper_id": "paper-0001"}),
            ],
        )
        assert [r["ok"] for r in responses] == [False, False, False, False, True]
        assert "invalid JSON" in responses[0]["error"]
        assert "JSON object" in responses[1]["error"]
        assert "unknown request kind" in responses[2]["error"]
        assert "paper_id" in responses[3]["error"]

    def test_domain_errors_become_error_responses(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "evaluate", "id": "e1"}),  # no assignment yet
                json.dumps({"kind": "withdraw_reviewer", "reviewer_id": "ghost"}),
                json.dumps({"kind": "solve", "solver": "MAGIC"}),
            ],
        )
        assert [r["ok"] for r in responses] == [False, False, False]
        assert responses[0]["id"] == "e1"
        assert "no assignment" in responses[0]["error"]
        assert "ghost" in responses[1]["error"]
        assert "unknown" in responses[2]["error"].lower()


class TestStructuredErrors:
    """PR-5 satellite: ``wgrap serve`` classifies every failure with a
    stable ``error_type`` code instead of leaking tracebacks."""

    def test_unknown_solver_name_is_classified(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "solve", "solver": "MAGIC"}),
                json.dumps({"kind": "journal", "paper_id": "paper-0000",
                            "solver": "MAGIC"}),
                json.dumps({"kind": "portfolio", "solvers": ["MAGIC"]}),
            ],
        )
        assert [r["ok"] for r in responses] == [False, False, False]
        assert {r["error_type"] for r in responses} == {"unknown_solver"}

    def test_malformed_requests_are_classified(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                "this is not json",
                json.dumps({"kind": "teleport"}),
                json.dumps({"kind": "journal"}),  # neither paper_id nor paper
            ],
        )
        assert [r["error_type"] for r in responses] == ["request"] * 3

    def test_infeasible_instances_are_classified(self, problem_file):
        # Adding a paper with a workload too low for the existing loads.
        late = {"id": "late", "vector": [0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.1]}
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "solve", "solver": "Greedy"}),
                json.dumps({"kind": "add_paper", "paper": late,
                            "reviewer_workload": 1}),
            ],
        )
        assert responses[0]["ok"]
        assert not responses[1]["ok"]
        assert responses[1]["error_type"] == "infeasible"

    def test_unknown_ids_are_classified(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "withdraw_reviewer", "reviewer_id": "ghost"}),
                json.dumps({"kind": "journal", "paper_id": "ghost-paper"}),
            ],
        )
        assert [r["error_type"] for r in responses] == ["unknown_id"] * 2

    def test_unexpected_exceptions_do_not_kill_the_loop(self, problem_file, monkeypatch):
        """A solver blowing up with a non-domain exception must yield a
        structured ``internal`` error (class + message, no traceback) and
        leave the loop serving subsequent requests."""
        from repro.cra.sdga import StageDeepeningGreedySolver

        def explode(self, problem):
            raise ZeroDivisionError("synthetic failure")

        monkeypatch.setattr(StageDeepeningGreedySolver, "_solve", explode)
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "solve", "solver": "SDGA", "id": 1}),
                json.dumps({"kind": "solve", "solver": "Greedy", "id": 2}),
            ],
        )
        assert not responses[0]["ok"]
        assert responses[0]["error_type"] == "internal"
        assert "ZeroDivisionError" in responses[0]["error"]
        assert "Traceback" not in responses[0]["error"]
        assert responses[1]["ok"]

    def test_successful_responses_carry_no_error_fields(self, problem_file):
        _, responses = _serve(
            problem_file, [json.dumps({"kind": "stats"})]
        )
        assert responses[0]["ok"]
        assert "error" not in responses[0]
        assert "error_type" not in responses[0]


class TestServeCommand:
    def test_serve_reads_stdin_writes_stdout(self, problem_file, monkeypatch, capsys):
        script = "\n".join(
            [
                json.dumps({"kind": "solve", "solver": "SDGA"}),
                json.dumps({"kind": "shutdown"}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script + "\n"))
        exit_code = main(["serve", "--problem", str(problem_file), "--warm"])
        assert exit_code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["kind"] for r in lines] == ["solve", "shutdown"]
        assert all(r["ok"] for r in lines)

    def test_serve_resumes_from_snapshot(self, problem_file, tmp_path, monkeypatch, capsys):
        snapshot = tmp_path / "engine.json"
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                json.dumps({"kind": "solve", "solver": "SDGA"}) + "\n"
                + json.dumps({"kind": "snapshot", "path": str(snapshot)}) + "\n"
            ),
        )
        assert main(["serve", "--problem", str(problem_file)]) == 0
        capsys.readouterr()
        assert load_engine_snapshot(snapshot).assignment is not None

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"kind": "evaluate"}) + "\n")
        )
        assert main(["serve", "--snapshot", str(snapshot)]) == 0
        (response,) = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert response["ok"]
        assert response["payload"]["score"] > 0

    def test_stdio_serve_requires_a_source(self, capsys):
        # --problem/--snapshot became optional for --tcp (a TCP server may
        # start empty and be populated via create_tenant); plain stdio
        # serving still demands a source, as a runtime error.
        assert main(["serve"]) == 2
        assert "--problem, --snapshot or --store" in capsys.readouterr().err

    def test_sources_stay_mutually_exclusive(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--problem", "a.json", "--snapshot", "b.json"])


class TestSessionCommand:
    def test_replays_a_script_and_saves_a_snapshot(self, problem_file, tmp_path, capsys):
        script = tmp_path / "requests.jsonl"
        script.write_text(
            "\n".join(
                [
                    json.dumps({"kind": "solve", "solver": "SDGA"}),
                    json.dumps({"kind": "journal", "paper_id": "paper-0000"}),
                    json.dumps({"kind": "journal", "paper_id": "paper-0001"}),
                    json.dumps({"kind": "evaluate"}),
                ]
            )
            + "\n"
        )
        responses_path = tmp_path / "responses.jsonl"
        snapshot_path = tmp_path / "engine.json"
        exit_code = main(
            ["session", str(problem_file), str(script),
             "--output", str(responses_path), "--save-snapshot", str(snapshot_path)]
        )
        assert exit_code == 0
        responses = [
            json.loads(line) for line in responses_path.read_text().splitlines()
        ]
        assert len(responses) == 4
        assert all(r["ok"] for r in responses)
        assert load_engine_snapshot(snapshot_path).assignment is not None
        summary = capsys.readouterr().out
        assert "4 responses" in summary
        assert "snapshot" in summary

    def test_malformed_script_lines_become_error_responses(
        self, problem_file, tmp_path, capsys
    ):
        script = tmp_path / "requests.jsonl"
        script.write_text(
            "\n".join(
                [
                    json.dumps({"kind": "solve", "solver": "SDGA"}),
                    "this is not json",
                    json.dumps({"kind": "journal"}),  # missing paper_id
                    json.dumps({"kind": "journal", "paper_id": "paper-0000"}),
                ]
            )
            + "\n"
        )
        assert main(["session", str(problem_file), str(script)]) == 0
        responses = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert [r["ok"] for r in responses] == [True, False, False, True]
        assert "invalid JSON" in responses[1]["error"]
        assert "paper_id" in responses[2]["error"]

    def test_prints_to_stdout_without_output_flag(self, problem_file, tmp_path, capsys):
        script = tmp_path / "requests.jsonl"
        script.write_text(json.dumps({"kind": "stats"}) + "\n")
        assert main(["session", str(problem_file), str(script)]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["ok"]


class TestObservabilityOverTheWire:
    @pytest.fixture(autouse=True)
    def _quiet_tracer(self):
        """Leave the shared tracer exactly as the tests found it."""
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        was_enabled = tracer.enabled
        yield
        tracer.enabled = was_enabled
        tracer.clear()

    def test_metrics_request_reports_latency_histograms_per_kind(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "solve", "solver": "Greedy"}),
                json.dumps({"kind": "journal", "paper_id": "paper-0001"}),
                json.dumps({"kind": "journal", "paper_id": "paper-0002"}),
                json.dumps({"kind": "metrics", "id": 9}),
            ],
        )
        assert all(r["ok"] for r in responses)
        metrics = responses[-1]["payload"]["metrics"]
        solve = metrics["service.request.solve.seconds"]
        journal = metrics["service.request.journal.seconds"]
        assert solve["count"] == 1
        assert journal["count"] == 2
        for histogram in (solve, journal):
            assert {"p50", "p95", "p99", "buckets"} <= set(histogram)
            assert histogram["p50"] <= histogram["p99"]
        assert metrics["service.requests"] == 4
        assert metrics["engine.solves"] == 1
        assert metrics["solver.Greedy.seconds"]["count"] >= 1

    def test_metrics_request_prometheus_format(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "solve", "solver": "Greedy"}),
                json.dumps({"kind": "metrics", "format": "prometheus"}),
            ],
        )
        exposition = responses[-1]["payload"]["exposition"]
        assert "# TYPE service_request_solve_seconds histogram" in exposition
        assert 'service_request_solve_seconds_bucket{le="+Inf"} 1' in exposition
        assert "service_requests 2" in exposition

    def test_metrics_request_rejects_unknown_formats(self, problem_file):
        _, responses = _serve(
            problem_file, [json.dumps({"kind": "metrics", "format": "xml"})]
        )
        assert not responses[0]["ok"]
        assert responses[0]["error_type"] == "request"

    def test_trace_round_trip_over_the_wire(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "trace", "enable": True, "id": 1}),
                json.dumps({"kind": "solve", "solver": "SDGA", "id": 2}),
                json.dumps({"kind": "trace", "id": 3}),
            ],
        )
        assert all(r["ok"] for r in responses)
        assert responses[0]["payload"] == {"enabled": True}
        # The enable request itself ran untraced; the solve carries an id.
        solve_trace = responses[1]["trace"]
        assert solve_trace
        # With no explicit id the last finished trace is returned — the
        # solve's, since the trace request itself had not finished yet.
        payload = responses[2]["payload"]
        assert payload["trace_id"] == solve_trace
        root = payload["root"]
        assert root["name"] == "request.solve"
        nested = [child["name"] for child in root["children"]]
        assert "engine.solve" in nested
        assert "request.solve" in payload["rendered"]

    def test_trace_fetch_by_id(self, problem_file):
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "trace", "enable": True}),
                json.dumps({"kind": "journal", "paper_id": "paper-0000"}),
                json.dumps({"kind": "solve", "solver": "Greedy"}),
            ],
        )
        journal_trace = responses[1]["trace"]
        _, fetched = _serve(
            problem_file, [json.dumps({"kind": "trace", "trace_id": journal_trace})]
        )
        assert fetched[0]["ok"]
        assert fetched[0]["payload"]["root"]["name"] == "request.journal"

    def test_trace_without_recording_is_a_structured_error(self, problem_file):
        _, responses = _serve(problem_file, [json.dumps({"kind": "trace"})])
        assert not responses[0]["ok"]
        assert responses[0]["error_type"] == "configuration"
        assert "no trace recorded" in responses[0]["error"]

    def test_every_response_carries_seconds_and_failures_are_counted(
        self, problem_file
    ):
        _, responses = _serve(
            problem_file,
            [
                json.dumps({"kind": "solve", "solver": "Greedy"}),
                json.dumps({"kind": "withdraw_reviewer", "reviewer_id": "missing"}),
                json.dumps({"kind": "stats"}),
            ],
        )
        assert all("seconds" in r and r["seconds"] >= 0.0 for r in responses)
        session_stats = responses[-1]["payload"]["session"]
        assert session_stats["failed"] == 1
        assert session_stats["error_types"] == {"unknown_id": 1}
        metrics = responses[-1]["payload"]["engine"]["metrics"]
        assert metrics["service.failures"] == 1
        assert metrics["service.errors.unknown_id"] == 1

    def test_slow_request_diagnostics_stream(self, problem_file):
        from repro.data.io import load_problem

        engine = AssignmentEngine(load_problem(problem_file))
        output, diagnostics = io.StringIO(), io.StringIO()
        serve_stream(
            engine,
            iter(
                [
                    json.dumps({"kind": "trace", "enable": True}),
                    json.dumps({"kind": "solve", "solver": "Greedy", "id": 7}),
                ]
            ),
            output,
            slow_threshold=0.0,
            diagnostics=diagnostics,
        )
        events = [json.loads(line) for line in diagnostics.getvalue().splitlines()]
        # Both requests cleared the 0-second threshold; the solve (traced)
        # carries its span tree, and the wire output stayed one line per
        # request.
        assert [event["event"] for event in events] == ["slow_request"] * 2
        solve_event = events[-1]
        assert solve_event["kind"] == "solve"
        assert solve_event["id"] == 7
        assert solve_event["seconds"] >= 0.0
        assert solve_event["spans"]["name"] == "request.solve"
        assert len(output.getvalue().splitlines()) == 2

    def test_serve_command_accepts_trace_and_slow_ms_flags(
        self, problem_file, monkeypatch, capsys
    ):
        script = "\n".join(
            [
                json.dumps({"kind": "solve", "solver": "Greedy"}),
                json.dumps({"kind": "shutdown"}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script + "\n"))
        exit_code = main(
            ["serve", "--problem", str(problem_file), "--trace", "--slow-ms", "0"]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert all(r["ok"] for r in lines)
        assert all("trace" in r for r in lines)
        events = [json.loads(line) for line in captured.err.splitlines()]
        assert events and all(e["event"] == "slow_request" for e in events)

    def test_solve_command_trace_flag_prints_the_span_tree(
        self, problem_file, tmp_path, capsys
    ):
        output = tmp_path / "assignment.json"
        exit_code = main(
            ["solve", str(problem_file), str(output), "--method", "SDGA", "--trace"]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "trace t" in printed
        assert "solver.SDGA" in printed
        assert "sdga.stage" in printed


class ServeProcess:
    """A ``wgrap serve --tcp`` subprocess with hard-timeout plumbing.

    Every interaction is bounded (ISSUE-7 satellite): startup waits for
    the ``listening`` line on a watchdog thread, sockets carry recv
    timeouts, and teardown escalates terminate -> kill, so a hung server
    fails the test in seconds instead of stalling the CI job.
    """

    STARTUP_TIMEOUT = 30.0
    IO_TIMEOUT = 30.0

    def __init__(self, *extra_args: str):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        # --port 0: the OS picks a free ephemeral port, announced on the
        # listening line — two servers can never collide on a port.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--tcp", "--port", "0",
             *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.info = json.loads(self._readline_with_timeout())
        assert self.info["event"] == "listening"
        self.host, self.port = self.info["host"], self.info["port"]

    def _readline_with_timeout(self) -> str:
        """Read one stdout line on a watchdog thread; kill on timeout."""
        import threading

        box: list[str] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout=self.STARTUP_TIMEOUT)
        if reader.is_alive() or not box or not box[0]:
            self.kill()
            raise TimeoutError(
                "server subprocess produced no listening line "
                f"within {self.STARTUP_TIMEOUT}s"
            )
        return box[0]

    def connect(self):
        import socket

        sock = socket.create_connection((self.host, self.port), timeout=self.IO_TIMEOUT)
        sock.settimeout(self.IO_TIMEOUT)
        return sock

    def call(self, *payloads: dict) -> list[dict]:
        """Send requests on one connection; returns one response each."""
        sock = self.connect()
        try:
            stream = sock.makefile("rw")
            for payload in payloads:
                stream.write(json.dumps(payload) + "\n")
            stream.flush()
            return [json.loads(stream.readline()) for _ in payloads]
        finally:
            sock.close()

    def wait(self) -> int:
        try:
            return self.proc.wait(timeout=self.IO_TIMEOUT)
        except Exception:
            self.kill()
            raise

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except Exception:
                self.proc.kill()
                self.proc.wait(timeout=5)


@pytest.fixture
def serve_tcp(problem_file):
    proc = ServeProcess("--problem", str(problem_file), "--tenant", "conf")
    yield proc
    proc.kill()


class TestServeTcpSubprocess:
    def test_listening_line_names_the_tenant_and_port(self, serve_tcp):
        assert serve_tcp.info["tenants"] == ["conf"]
        assert serve_tcp.port > 0

    def test_solve_and_journal_over_tcp(self, serve_tcp):
        solve, journal = serve_tcp.call(
            {"kind": "solve", "solver": "Greedy", "id": 1},
            {"kind": "journal", "paper_id": "paper-0000", "id": 2},
        )
        assert solve["ok"] and solve["id"] == 1
        assert solve["tenant"] == "conf" and solve["seq"] == 1
        assert journal["ok"] and journal["payload"]["groups"][0]["rank"] == 1

    def test_malformed_lines_get_structured_errors_over_tcp(self, serve_tcp):
        bad, good = serve_tcp.call({"kind": "teleport"}, {"kind": "stats"})
        assert bad["ok"] is False and bad["error_type"] == "request"
        assert "Traceback" not in bad["error"]
        assert good["ok"] is True

    def test_shutdown_request_exits_the_process_cleanly(self, serve_tcp):
        (goodbye,) = serve_tcp.call({"kind": "shutdown"})
        assert goodbye["ok"] is True
        assert goodbye["payload"]["shutdown"] is True
        assert serve_tcp.wait() == 0

    def test_two_servers_bind_distinct_ports(self, problem_file):
        first = ServeProcess("--problem", str(problem_file))
        second = ServeProcess("--problem", str(problem_file))
        try:
            assert first.port != second.port
            for proc in (first, second):
                (response,) = proc.call({"kind": "stats"})
                assert response["ok"] is True
        finally:
            first.kill()
            second.kill()

    def test_empty_server_is_populated_via_create_tenant(self, problem_file):
        proc = ServeProcess("--max-pending", "64")
        try:
            assert proc.info["tenants"] == []
            problem_payload = json.loads(problem_file.read_text())
            # sequential round-trips: a pipelined solve could legitimately
            # arrive before the create_tenant task has registered the tenant
            (created,) = proc.call(
                {"kind": "create_tenant", "tenant": "late", "problem": problem_payload}
            )
            assert created["ok"], created
            (solved,) = proc.call({"kind": "solve", "solver": "Greedy", "tenant": "late"})
            assert solved["ok"] and solved["tenant"] == "late"
            (goodbye,) = proc.call({"kind": "shutdown"})
            assert goodbye["ok"]
            assert proc.wait() == 0
        finally:
            proc.kill()


class TestServeSignals:
    """ISSUE-8 satellite: SIGTERM/SIGINT drain the server instead of
    killing it — the in-flight request finishes, the process exits 0."""

    def _spawn_stdio(self, problem_file):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--problem", str(problem_file)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )

    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGINT"])
    def test_signal_drains_the_stdio_loop(self, problem_file, signame):
        import signal

        proc = self._spawn_stdio(problem_file)
        try:
            # One served round trip proves the loop is live, and leaves
            # the process blocked on the stdin read — the idle case,
            # where the handler must interrupt the read directly.
            proc.stdin.write(json.dumps({"kind": "solve", "solver": "Greedy"}) + "\n")
            proc.stdin.flush()
            response = json.loads(proc.stdout.readline())
            assert response["ok"], response
            proc.send_signal(getattr(signal, signame))
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)

    def test_sigterm_drains_the_tcp_server(self, serve_tcp):
        import signal

        (response,) = serve_tcp.call({"kind": "solve", "solver": "Greedy"})
        assert response["ok"], response
        serve_tcp.proc.send_signal(signal.SIGTERM)
        assert serve_tcp.wait() == 0


class TestServeDurability:
    """ISSUE-8: ``--wal-dir`` crash recovery through the real CLI —
    subprocess SIGKILL, restart over the same root, recovered state."""

    LATE = {"id": "late", "vector": [0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.1]}

    def test_wal_dir_requires_tcp(self, problem_file, tmp_path, capsys):
        exit_code = main(
            ["serve", "--problem", str(problem_file),
             "--wal-dir", str(tmp_path / "wal")]
        )
        assert exit_code == 2
        assert "--wal-dir needs --tcp" in capsys.readouterr().err

    def test_sigkill_then_restart_recovers_the_tenant(self, problem_file, tmp_path):
        wal = str(tmp_path / "wal")
        first = ServeProcess(
            "--problem", str(problem_file), "--tenant", "conf",
            "--wal-dir", wal, "--checkpoint-every", "2", "--fsync", "always",
        )
        try:
            assert first.info["durable"] is True
            assert first.info["recovered"] == []
            solve, add = first.call(
                {"kind": "solve", "solver": "Greedy", "seq": 1},
                {"kind": "add_paper", "paper": self.LATE,
                 "reviewer_workload": 6, "seq": 2},
            )
            assert solve["ok"], solve
            assert add["ok"], add
            assert add["payload"]["num_papers"] == 11
        finally:
            first.proc.kill()  # SIGKILL: a crash, not a drain
            first.proc.wait(timeout=5)

        # A fresh process over the same WAL root — no --problem — finds
        # and replays the journal before it starts listening.
        second = ServeProcess("--wal-dir", wal)
        try:
            assert second.info["recovered"] == ["conf"]
            assert second.info["tenants"] == ["conf"]
            (stats,) = second.call({"kind": "stats", "tenant": "conf"})
            assert stats["ok"], stats
            assert stats["payload"]["engine"]["revision"] == 1  # the add_paper
            # The idempotency map survived the kill: the same key is
            # answered without a second application.
            (repeat,) = second.call(
                {"kind": "add_paper", "paper": self.LATE,
                 "reviewer_workload": 6, "seq": 2, "tenant": "conf"}
            )
            assert repeat["ok"], repeat
            assert repeat["payload"]["num_papers"] == 11
            (goodbye,) = second.call({"kind": "shutdown"})
            assert goodbye["ok"]
            assert second.wait() == 0
        finally:
            second.kill()

    def test_sigterm_checkpoint_makes_recovery_replay_free(
        self, problem_file, tmp_path
    ):
        import signal

        wal = str(tmp_path / "wal")
        first = ServeProcess(
            "--problem", str(problem_file), "--tenant", "conf", "--wal-dir", wal,
        )
        try:
            (add,) = first.call(
                {"kind": "add_paper", "paper": self.LATE,
                 "reviewer_workload": 6, "seq": 1}
            )
            assert add["ok"], add
            first.proc.send_signal(signal.SIGTERM)  # drain: final checkpoint
            assert first.wait() == 0
        finally:
            first.kill()

        second = ServeProcess("--wal-dir", wal)
        try:
            assert second.info["recovered"] == ["conf"]
            (stats,) = second.call({"kind": "stats", "tenant": "conf"})
            assert stats["payload"]["engine"]["revision"] == 1
        finally:
            second.kill()


class TestRegistryBackedFlags:
    def test_solve_rejects_unregistered_method(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "p.json", "a.json", "--method", "MAGIC"])

    def test_journal_solver_choices_come_from_registry(self, problem_file, capsys):
        exit_code = main(
            ["journal", str(problem_file), "paper-0002", "--solver", "BFS"]
        )
        assert exit_code == 0
        assert "best group" in capsys.readouterr().out
