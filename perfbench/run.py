"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload journal-hot --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``journal-hot`` — read-only journal/evaluate/stats traffic to a durable
  400 x 120 x 30 tenant over TCP;
* ``churn-durable`` — the same tenant shape under bids, late papers and
  withdrawals beside reads, every mutation write-ahead logged;
* ``pipeline-batch`` — text -> ATM -> EM -> SDGA-SRA -> evaluate in a
  fresh process.

Inputs are generated from ``--seed``; the amount of work is fixed by
``--seconds`` (a nominal rate times the seconds), so two commits run on
the same arguments do identical work.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is
0 only when the run completed and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("journal-hot", "churn-durable", "pipeline-batch")
#: server set-ups made per serve run; ``setup_s`` is their median
SETUPS = {"journal-hot": 3, "churn-durable": 5}

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _classes(exchanges: list) -> dict:
    from pb_serve import MUTATION_KINDS
    from pb_stats import LatencyClass

    classes = {name: LatencyClass() for name in ("all", "journal", "mutation")}
    for exchange in exchanges:
        kind = exchange.request["kind"]
        classes["all"].record(exchange.latency_ms, exchange.ok)
        if kind == "journal":
            classes["journal"].record(exchange.latency_ms, exchange.ok)
        elif kind in MUTATION_KINDS:
            classes["mutation"].record(exchange.latency_ms, exchange.ok)
    return classes


def tally(scripted: int, exchanges: list) -> tuple[int, int]:
    """``(attempted, failed)``: every scripted request counts as attempted.

    A request that was refused or failed, whose reply was lost, or that
    was never sent because the load hit its time cap, is a failure.
    """
    return scripted, scripted - sum(1 for exchange in exchanges if exchange.ok)


def _scripted(inputs: dict) -> int:
    return sum(len(script) for script in inputs["scripts"])


def run_serve(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import pb_layers
    import pb_serve
    from pb_stats import median, tail

    problem, inputs = pb_serve.prepare(workload, seed, seconds, workdir)
    plain = pb_serve.serve_pass(ROOT, workdir, problem, inputs,
                                setups=1 if trace else SETUPS[workload], tag="plain", traced=False)
    mismatches, answer_digest = pb_serve.check_pass(workload, problem, plain)
    exchanges = plain.load.exchanges
    classes = _classes(exchanges)
    attempted, failed = tally(_scripted(inputs), exchanges)
    ok = attempted - failed
    end_to_end = {
        "setup_s": median(plain.setup_s),
        "req_per_s": ok / plain.load.wall_s,
        "latency_p95_ms": tail(classes["all"].latencies_ms),
        "peak_rss_mb": plain.peak_rss_mb,
    }
    report = {
        "classes": classes,
        "server_cpu_ms_per_request": plain.cpu_s * 1000.0 / max(1, ok),
        "wall_s": plain.load.wall_s,
        "assignment_coverage": plain.coverage,
        "setup_runs_s": plain.setup_s,
        "digest": answer_digest,
    }
    result = {"attempted": attempted, "failed": failed, "mismatches": mismatches,
              "end_to_end": end_to_end, "report": report}
    if trace:
        traced = pb_serve.serve_pass(ROOT, workdir, problem, inputs, setups=1,
                                     tag="traced", traced=True)
        traced_mismatches, _ = pb_serve.check_pass(workload, problem, traced)
        result["mismatches"] = mismatches + traced_mismatches
        traced_attempted, traced_failed = tally(_scripted(inputs), traced.load.exchanges)
        result["attempted"] += traced_attempted
        result["failed"] += traced_failed
        document = json.loads(traced.spans.read_text())
        layers = pb_layers.serve_layers(document, traced.load.window, traced.load.exchanges,
                                        traced.stats_before, traced.stats_after, traced.cpu_s)
        layers["trace.overhead_share"] = traced.load.wall_s / plain.load.wall_s - 1.0
        layers["assignment_coverage"] = plain.coverage
        result["per_layer"] = _with_classes(layers, classes, result)
        result["spans"] = traced.spans
    return result


def _with_classes(layers: dict, classes: dict, result: dict) -> dict:
    from pb_stats import error_rate

    layers["latency_p50_ms"] = classes["all"].p50()
    layers["latency_p99_ms"] = classes["all"].p99()
    for name in ("journal", "mutation"):
        if classes[name].count:
            layers[f"{name}_p50_ms"] = classes[name].p50()
            layers[f"{name}_p99_ms"] = classes[name].p99()
    layers["error_rate"] = error_rate(result["attempted"], result["failed"])
    return layers


def _pipeline_process(workdir: Path, corpus: Path, seed: int, tag: str,
                      spans: Path | None) -> tuple[subprocess.Popen, float, Path]:
    """Spawn one pipeline process and wait until it is set up."""
    output = workdir / f"pipeline-{tag}.json"
    command = [sys.executable, str(HERE / "pb_pipeline.py"), str(corpus), str(output), str(seed)]
    if spans is not None:
        command.append(str(spans))
    started = time.perf_counter()
    from pb_serve import die_with_parent

    process = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               cwd=workdir, text=True, preexec_fn=die_with_parent)
    line = process.stdout.readline()
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise RuntimeError(f"pipeline process {tag} did not become ready")
    return process, time.perf_counter() - started, output


def _finish(process: subprocess.Popen, command: str) -> None:
    process.stdin.write(command + "\n")
    process.stdin.close()
    try:
        process.wait(timeout=170)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"pipeline process exited with {process.returncode}")


def _pipeline_pass(workdir: Path, corpus: Path, seed: int, runs: int, tag: str,
                   spans: Path | None = None) -> tuple[list[float], list[dict]]:
    """``runs`` pipelines, each in a fresh process: set-up times and outcomes."""
    setup_times, outcomes = [], []
    for attempt in range(runs):
        process, setup_s, output = _pipeline_process(
            workdir, corpus, seed, f"{tag}-{attempt}", spans)
        setup_times.append(setup_s)
        _finish(process, "go")
        outcomes.append(json.loads(output.read_text()))
    return setup_times, outcomes


def check_pipeline(outcome: dict) -> tuple[list[str], str]:
    """Feasibility (group size, workload, conflicts) and the recomputed score."""
    from pb_serve import digest
    from repro.data.io import assignment_from_dict, problem_from_dict
    from repro.exceptions import ReproError

    problem = problem_from_dict(outcome["problem"])
    assignment = assignment_from_dict(outcome["assignment"])
    mismatches = []
    try:
        problem.validate_assignment(assignment, require_complete=True)
    except ReproError as exc:
        mismatches.append(f"infeasible assignment: {exc}")
    recomputed = problem.assignment_score(assignment)
    if recomputed != outcome["score"]:
        mismatches.append(f"recomputed coverage {recomputed!r} != solver score {outcome['score']!r}")
    return mismatches, digest([sorted(assignment.pairs()), outcome["score"]])


def run_pipeline(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import pb_layers
    import pb_workloads
    from pb_stats import median, tail

    corpus = workdir / "corpus.json"
    pb_workloads.write_corpus(corpus)
    runs = pb_workloads.pipeline_runs(seconds)
    setup_times, outcomes = _pipeline_pass(workdir, corpus, seed, 1 if trace else runs, "plain")
    checked = [check_pipeline(outcome) for outcome in outcomes]
    mismatches = [m for found, _ in checked for m in found]
    digests = sorted({found_digest for _, found_digest in checked})
    if len(digests) > 1:
        mismatches.append(f"pipelines on one seed disagree: digests {digests}")
    failed = sum(1 for found, _ in checked if found)
    seconds_each = [outcome["pipeline_s"] for outcome in outcomes]
    end_to_end = {
        "setup_s": median(setup_times),
        "req_per_s": 1.0 / median(seconds_each),
        "latency_p95_ms": tail(seconds_each) * 1000.0,
        "peak_rss_mb": max(outcome["peak_rss_mb"] for outcome in outcomes),
    }
    report = {
        "pipeline_s": median(seconds_each),
        "pipeline_runs_s": seconds_each,
        "cpu_s": median([outcome["cpu_s"] for outcome in outcomes]),
        "optimality_ratio": outcomes[0]["evaluation"].get("optimality_ratio"),
        "assignment_coverage": outcomes[0]["score"],
        "setup_runs_s": setup_times,
        "digest": digests[0],
    }
    result = {"attempted": len(outcomes), "failed": failed, "mismatches": mismatches,
              "end_to_end": end_to_end, "report": report}
    if trace:
        spans = workdir / "spans-pipeline.json"
        _, (traced,) = _pipeline_pass(workdir, corpus, seed, 1, "traced", spans)
        traced_mismatches, traced_digest = check_pipeline(traced)
        if traced_digest != digests[0]:
            traced_mismatches.append("the traced pipeline produced another assignment")
        result["mismatches"] = mismatches + traced_mismatches
        result["attempted"] += 1
        result["failed"] += 1 if traced_mismatches else 0
        layers = pb_layers.pipeline_layers(json.loads(spans.read_text()), traced)
        layers["trace.overhead_share"] = traced["pipeline_s"] / report["pipeline_s"] - 1.0
        layers["pipeline_s"] = report["pipeline_s"]
        layers["latency_p50_ms"] = report["pipeline_s"] * 1000.0
        layers["latency_p99_ms"] = max(seconds_each) * 1000.0
        layers["assignment_coverage"] = report["assignment_coverage"]
        layers["error_rate"] = result["failed"] / result["attempted"]
        result["per_layer"] = layers
        result["spans"] = spans
    return result


def _print_report(workload: str, result: dict, trace: bool) -> None:
    units = dict(END_TO_END)
    print(f"workload {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"checks {'passed' if not result['mismatches'] else 'FAILED'}")
    for mismatch in result["mismatches"][:20]:
        print(f"  mismatch: {mismatch}")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<22} {value:>14.4f} {units[name]}")
    report = result["report"]
    from pb_stats import error_rate, min_samples, supports

    for name, latencies in report.get("classes", {}).items():
        label = "latency" if name == "all" else name
        for q, value in ((0.5, latencies.p50), (0.95, latencies.p95), (0.99, latencies.p99)):
            if not latencies.count:
                continue
            note = "" if supports(latencies.count, q) else f" (unsupported: needs n >= {min_samples(q)})"
            metric = f"{label}_p{round(q * 100)}_ms"
            print(f"  {metric:<22} {value():>14.4f} ms   n={latencies.count}{note}")

    print(f"  {'error_rate':<22} {error_rate(result['attempted'], result['failed']):>14.4f} share")
    for name in ("assignment_coverage", "pipeline_s", "server_cpu_ms_per_request", "wall_s",
                 "cpu_s", "optimality_ratio", "elapsed_s"):
        if report.get(name) is not None:
            print(f"  {name:<22} {report[name]:>14.4f}")
    for name in ("setup_runs_s", "pipeline_runs_s"):
        if name in report:
            print(f"  {name:<22} " + " ".join(f"{value:.4f}" for value in report[name]))
    print(f"  digest {report['digest']}")
    if trace:
        import pb_layers

        layer_units = {name: unit for name, unit, _ in pb_layers.PER_LAYER}
        for name, value in result["per_layer"].items():
            print(f"  {name:<38} {value:>14.4f} {layer_units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {ROOT / 'src'}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    # SIGTERM unwinds like an exception, so every child is stopped first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        if args.workload == "pipeline-batch":
            result = run_pipeline(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            result = run_serve(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        if args.trace:
            # Keep the span file and the per-layer summary of the traced run.
            kept = ROOT / ".perfbench_work" / "traces" / f"{args.workload}-{args.seed}"
            kept.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(result["spans"], kept / "spans.json")
            (kept / "layers.json").write_text(json.dumps(result["per_layer"], indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    result["report"]["elapsed_s"] = time.perf_counter() - started
    _print_report(args.workload, result, bool(args.trace))
    correct = not result["mismatches"] and result["failed"] == 0
    if args.trace:
        import pb_layers

        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in pb_layers.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
