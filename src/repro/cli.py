"""Command-line interface for the WGRAP library.

The ``wgrap`` command (also installed as ``repro``) exposes the most common
workflows:

* ``wgrap generate`` — create a synthetic problem file (JSON).
* ``wgrap solve``    — run a conference-assignment solver on a problem
  file; ``--portfolio`` races several solvers and keeps the best result,
  ``--deadline`` bounds the race in seconds.
* ``wgrap journal``  — find the best reviewer group for one paper of a
  problem file (JRA).
* ``wgrap evaluate`` — score an existing assignment against a problem.
* ``wgrap serve``    — keep a resident assignment engine and answer
  JSON-lines requests over stdio (one request per input line, one
  response per output line).
* ``wgrap session``  — replay a scripted JSON-lines request file against a
  fresh engine through the same loop as ``serve``, and optionally
  snapshot the final state.
* ``wgrap wal``      — inspect a ``--wal-dir`` root offline: per-tenant
  checkpoint/last seqs, segment files, record counts and torn-tail bytes.
* ``wgrap store``    — compile a JSON/CSV problem snapshot into a SQLite
  problem store (``import``), export a store back to JSON/CSV
  (``export``), or print its row/index statistics (``info``).

``solve``, ``serve`` and ``session`` also accept ``--store path.db`` to
work from a SQLite problem store instead of a JSON problem file; see
``docs/storage.md``.

``solve``, ``serve`` and ``session`` accept ``--workers N`` to enable the
worker-pool execution layer of :mod:`repro.parallel` (``0`` = one worker
per CPU core): score matrices are then built by the sharded kernel and
portfolio members race in separate processes, with results identical to
the serial paths.

All files use the JSON formats of :mod:`repro.data.io`.  Solver names for
``--method`` / ``--solver`` / ``--portfolio`` are validated against the
string-keyed solver registry of :mod:`repro.service.registry`.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.cra import available_solvers as available_cra_solvers
from repro.data.io import load_assignment, load_problem, save_assignment, save_problem
from repro.data.synthetic import SyntheticWorkloadGenerator
from repro.jra import available_solvers as available_jra_solvers
from repro.metrics.quality import lowest_coverage_score, optimality_ratio
from repro.parallel import DEFAULT_PORTFOLIO, ParallelConfig, run_portfolio
from repro.service.engine import AssignmentEngine
from repro.service.registry import create_solver
from repro.service.session import serve_stream

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="wgrap",
        description="Weighted Coverage based Reviewer Assignment (SIGMOD 2015 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic problem file")
    generate.add_argument("output", help="path of the JSON problem file to write")
    generate.add_argument("--papers", type=int, default=60, help="number of papers")
    generate.add_argument("--reviewers", type=int, default=25, help="number of reviewers")
    generate.add_argument("--topics", type=int, default=30, help="number of topics")
    generate.add_argument("--group-size", type=int, default=3, help="reviewers per paper")
    generate.add_argument(
        "--workload", type=int, default=None, help="max papers per reviewer (default: minimal)"
    )
    generate.add_argument("--seed", type=int, default=0, help="random seed")

    solve = subparsers.add_parser("solve", help="solve a conference assignment")
    solve.add_argument(
        "problem",
        nargs="?",
        default=None,
        help="path of the JSON problem file (or use --store)",
    )
    solve.add_argument("output", help="path of the JSON assignment file to write")
    solve.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="load the problem from a SQLite problem store instead of a JSON file",
    )
    solve.add_argument(
        "--method",
        default="SDGA-SRA",
        choices=available_cra_solvers(),
        help="assignment method (from the solver registry)",
    )
    solve.add_argument(
        "--portfolio",
        nargs="?",
        const=",".join(DEFAULT_PORTFOLIO),
        default=None,
        metavar="SOLVERS",
        help=(
            "race several solvers and keep the best assignment; pass a "
            "comma-separated solver list, 'all' for every registered "
            "solver (exponential-time members excluded), or omit the "
            f"value for the default portfolio ({', '.join(DEFAULT_PORTFOLIO)})"
        ),
    )
    solve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds for the portfolio race",
    )
    solve.add_argument(
        "--trace",
        action="store_true",
        help="record spans and print the solve's timing tree afterwards",
    )
    _add_workers_flag(solve)

    journal = subparsers.add_parser("journal", help="find the best group for one paper")
    journal.add_argument("problem", help="path of the JSON problem file")
    journal.add_argument("paper_id", help="id of the paper to staff")
    journal.add_argument("--group-size", type=int, default=None,
                         help="override the problem's group size")
    journal.add_argument(
        "--solver",
        default="BBA",
        choices=available_jra_solvers(),
        help="journal solver (from the solver registry)",
    )

    evaluate = subparsers.add_parser("evaluate", help="score an existing assignment")
    evaluate.add_argument("problem", help="path of the JSON problem file")
    evaluate.add_argument("assignment", help="path of the JSON assignment file")

    serve = subparsers.add_parser(
        "serve", help="serve JSON-lines requests from a resident engine"
    )
    source = serve.add_mutually_exclusive_group(required=False)
    source.add_argument("--problem", help="path of the JSON problem file to load")
    source.add_argument("--snapshot", help="path of an engine snapshot to resume from")
    source.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="back the initial tenant by a SQLite problem store at this path",
    )
    serve.add_argument(
        "--tcp",
        action="store_true",
        help=(
            "serve a TCP JSON-lines endpoint (repro.net) instead of stdio; "
            "prints one {'event': 'listening', ...} JSON line with the bound "
            "port, then serves until a 'shutdown' request"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (with --tcp)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port; 0 binds an ephemeral port (with --tcp)",
    )
    serve.add_argument(
        "--tenant",
        default="default",
        help="conference id of the initial tenant (with --tcp)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help=(
            "admission bound: requests admitted-but-unanswered per tenant "
            "before new ones are refused as 'overloaded' (with --tcp)"
        ),
    )
    serve.add_argument(
        "--warm",
        action="store_true",
        help="build the score matrix before serving the first request",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree per request (fetchable via the 'trace' kind)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help=(
            "emit a JSON diagnostics line on stderr for every request "
            "slower than this many milliseconds (span tree attached when "
            "--trace is on)"
        ),
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        help=(
            "make tenants durable (with --tcp): write-ahead log + "
            "checkpoints per tenant under this directory; on start, every "
            "journal found there is recovered (checkpoint + WAL replay)"
        ),
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        help="journaled mutations between checkpoints (with --wal-dir)",
    )
    serve.add_argument(
        "--fsync",
        default="batch",
        choices=("never", "batch", "always"),
        help="WAL fsync policy (with --wal-dir); see docs/durability.md",
    )
    serve.add_argument(
        "--applied-cap",
        type=int,
        default=1024,
        help=(
            "bound of the per-tenant applied-response (idempotency) map "
            "(with --wal-dir); evictions are counted as "
            "durability.applied_evicted"
        ),
    )
    serve.add_argument(
        "--replicate-to",
        default=None,
        metavar="HOST:PORT",
        help=(
            "ship this server's WAL to a warm standby at HOST:PORT "
            "(with --tcp and --wal-dir); reconnects and catches up "
            "whenever the standby comes and goes"
        ),
    )
    serve.add_argument(
        "--standby-of",
        default=None,
        metavar="HOST:PORT",
        help=(
            "run as a warm standby of the primary at HOST:PORT (with "
            "--tcp and --wal-dir): replay replication frames, refuse "
            "engine traffic with error_type 'standby' until promoted"
        ),
    )
    serve.add_argument(
        "--auto-promote-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "standby only: self-promote when no replication frame has "
            "arrived for this many seconds (omit for explicit 'promote' "
            "requests only)"
        ),
    )
    _add_workers_flag(serve)

    wal = subparsers.add_parser(
        "wal",
        help="inspect a WAL root offline (segments, seqs, torn tails)",
    )
    wal.add_argument("root", help="the --wal-dir directory to inspect")
    wal.add_argument(
        "--tenant", default=None, help="inspect only this tenant's journal"
    )
    wal.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object instead of the text summary",
    )

    session = subparsers.add_parser(
        "session", help="replay a JSON-lines request script against a fresh engine"
    )
    session.add_argument(
        "problem",
        nargs="?",
        default=None,
        help="path of the JSON problem file to load (or use --store)",
    )
    session.add_argument("requests", help="path of the JSON-lines request script")
    session.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="back the engine by a SQLite problem store instead of a JSON file",
    )
    session.add_argument(
        "--output", default=None, help="write responses to this file instead of stdout"
    )
    session.add_argument(
        "--save-snapshot", default=None, help="save the final engine state to this path"
    )
    _add_workers_flag(session)

    store = subparsers.add_parser(
        "store",
        help="import/export/inspect SQLite problem stores (docs/storage.md)",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_import = store_commands.add_parser(
        "import", help="compile a JSON problem file or CSV directory into a store"
    )
    store_import.add_argument(
        "source", help="JSON problem file, or CSV snapshot directory"
    )
    store_import.add_argument("store", help="path of the SQLite store file to create")
    store_import.add_argument(
        "--blocks",
        action="store_true",
        help="also allocate a memmap block backend for the score matrix",
    )
    store_import.add_argument(
        "--block-cols",
        type=int,
        default=64,
        help="columns per block of the memmap backend (with --blocks)",
    )
    store_export = store_commands.add_parser(
        "export", help="export a store back to a JSON file or CSV directory"
    )
    store_export.add_argument("store", help="path of the SQLite store file")
    store_export.add_argument(
        "dest",
        help=(
            "destination: a path ending in .json gets the JSON problem "
            "format, anything else a CSV snapshot directory (with bids)"
        ),
    )
    store_info = store_commands.add_parser(
        "info", help="print a store's rows, indexes and maintenance counters"
    )
    store_info.add_argument("store", help="path of the SQLite store file")

    return parser


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the parallel execution layer "
            "(0 = one per CPU core; omit for fully serial operation)"
        ),
    )


def _parallel_config(args: argparse.Namespace) -> "ParallelConfig | None":
    workers = getattr(args, "workers", None)
    if workers is None:
        return None
    return ParallelConfig(workers=workers)


def _command_generate(args: argparse.Namespace) -> int:
    generator = SyntheticWorkloadGenerator(num_topics=args.topics, seed=args.seed)
    problem = generator.generate_problem(
        num_papers=args.papers,
        num_reviewers=args.reviewers,
        group_size=args.group_size,
        reviewer_workload=args.workload,
    )
    path = save_problem(problem, args.output)
    print(
        f"wrote {path}: {problem.num_papers} papers, {problem.num_reviewers} reviewers, "
        f"delta_p={problem.group_size}, delta_r={problem.reviewer_workload}"
    )
    return 0


def _load_problem_source(args: argparse.Namespace) -> "WGRAPProblem | None":
    """Resolve the problem of a command taking a JSON file or ``--store``.

    Returns ``None`` (after printing an error) unless exactly one source
    was given.  The SQLite store is opened read-materialise-close: these
    commands want a standalone problem, not a live attachment.
    """
    if (args.problem is None) == (args.store is None):
        print(
            f"error: {args.command} needs exactly one of a problem file "
            "or --store",
            file=sys.stderr,
        )
        return None
    if args.store is not None:
        from repro.store.sqlite import SqliteProblemStore

        store = SqliteProblemStore.open(args.store)
        try:
            return store.load_problem()
        finally:
            store.close()
    return load_problem(args.problem)


def _command_solve(args: argparse.Namespace) -> int:
    if args.trace:
        from repro.obs.trace import get_tracer

        get_tracer().enabled = True
    problem = _load_problem_source(args)
    if problem is None:
        return 2
    parallel = _parallel_config(args)
    races_in_processes = (
        args.portfolio is not None
        and parallel is not None
        and parallel.resolved_workers() > 1
    )
    if parallel is not None and not races_in_processes:
        # Warm the cached pair-score matrix through the sharded kernel so
        # the solver's scoring stage is already paid for (bitwise-equal).
        # Pointless before a process race: workers rebuild the problem
        # from its dict form and never see this cache.
        problem.warm_pair_scores(parallel=parallel)
    if args.portfolio is not None:
        solvers = [name.strip() for name in args.portfolio.split(",") if name.strip()]
        outcome = run_portfolio(
            problem, solvers=solvers, deadline=args.deadline, config=parallel
        )
        for entry in outcome.entries:
            detail = (
                f"score {entry.score:.4f} in {entry.elapsed_seconds:.2f}s"
                if entry.status == "ok"
                else entry.status + (f": {entry.error}" if entry.error else "")
            )
            print(f"  {entry.solver}: {detail}")
        result = outcome.best
        print(f"portfolio winner: {outcome.best_solver}")
    else:
        solver = create_solver("cra", args.method)
        result = solver.solve(problem)
    solve_trace = None
    if args.trace:
        from repro.obs.trace import get_tracer

        # Snapshot now: the evaluation below records traces of its own.
        solve_trace = get_tracer().last_trace()
    save_assignment(result.assignment, args.output)
    ratio = optimality_ratio(problem, result.assignment)
    print(
        f"{result.solver_name}: coverage score {result.score:.4f}, "
        f"optimality ratio {ratio:.4f}, "
        f"lowest coverage {lowest_coverage_score(problem, result.assignment):.4f}, "
        f"time {result.elapsed_seconds:.2f}s"
    )
    print(f"wrote assignment to {args.output}")
    if solve_trace is not None:
        trace_id, root = solve_trace
        print(f"trace {trace_id}:")
        print(root.format_tree())
    return 0


def _command_journal(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    engine = AssignmentEngine(problem)
    answer = engine.journal_query(
        args.paper_id, group_size=args.group_size, solver=args.solver
    )
    print(f"best group for paper {args.paper_id!r} (score {answer.best.score:.4f}):")
    for reviewer_id in answer.best.reviewer_ids:
        print(f"  - {reviewer_id}")
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    assignment = load_assignment(args.assignment)
    problem.validate_assignment(assignment, require_complete=False)
    score = problem.assignment_score(assignment)
    print(f"coverage score: {score:.4f}")
    print(f"optimality ratio: {optimality_ratio(problem, assignment):.4f}")
    print(f"lowest per-paper coverage: {lowest_coverage_score(problem, assignment):.4f}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    parallel = _parallel_config(args)
    if not args.tcp and not (args.problem or args.snapshot or args.store):
        print(
            "error: serve needs --problem, --snapshot or --store "
            "(a TCP server may instead start empty and accept create_tenant)",
            file=sys.stderr,
        )
        return 2
    if args.wal_dir is not None and not args.tcp:
        print(
            "error: --wal-dir needs --tcp (durability journals per-tenant "
            "state; the stdio loop has no tenants)",
            file=sys.stderr,
        )
        return 2
    if (args.replicate_to or args.standby_of) and args.wal_dir is None:
        print(
            "error: --replicate-to/--standby-of need --wal-dir (the WAL "
            "root is the replication unit)",
            file=sys.stderr,
        )
        return 2
    if args.replicate_to and args.standby_of:
        print(
            "error: --replicate-to and --standby-of are mutually exclusive "
            "(promote the standby before chaining a new one)",
            file=sys.stderr,
        )
        return 2
    if args.standby_of and (args.problem or args.snapshot or args.store):
        print(
            "error: a standby takes its state from the primary; "
            "--problem/--snapshot/--store cannot be combined with --standby-of",
            file=sys.stderr,
        )
        return 2
    engine = None
    if args.snapshot:
        engine = AssignmentEngine.load(args.snapshot, parallel=parallel)
    elif args.problem:
        engine = AssignmentEngine(load_problem(args.problem), parallel=parallel)
    elif args.store:
        from repro.store.sqlite import SqliteProblemStore

        engine = AssignmentEngine.from_store(
            SqliteProblemStore.open(args.store), parallel=parallel
        )
    if args.warm and engine is not None:
        engine.warm()
    if args.trace:
        from repro.obs.trace import get_tracer

        get_tracer().enabled = True
    slow_threshold = None if args.slow_ms is None else args.slow_ms / 1000.0
    if args.tcp:
        return _serve_tcp(args, engine)
    try:
        serve_stream(
            engine,
            sys.stdin,
            sys.stdout,
            slow_threshold=slow_threshold,
            diagnostics=sys.stderr,
            handle_signals=True,
        )
    finally:
        # The SQLite backend holds one long transaction; only close()
        # commits it — without this, every mutation served over stdio
        # would silently roll back when the process exits.
        if engine is not None and engine.store is not None:
            engine.store.close()
    return 0


def _serve_tcp(args: argparse.Namespace, engine: AssignmentEngine | None) -> int:
    """Run the asyncio TCP front end until a ``shutdown`` request.

    The bound address is announced as one ``{"event": "listening", ...}``
    JSON line on stdout — with ``--port 0`` this is how callers learn the
    ephemeral port, which is what makes subprocess tests collision-safe.
    """
    import asyncio
    import json
    import signal

    from repro.net import AdmissionController, AssignmentServer

    durability = None
    if args.wal_dir is not None:
        from repro.durability import DurabilityConfig

        durability = DurabilityConfig(
            root=args.wal_dir,
            fsync=args.fsync,
            checkpoint_every=args.checkpoint_every,
            applied_limit=args.applied_cap,
        )

    def _endpoint(text: str) -> tuple[str, int]:
        host, _, port = text.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(
                f"error: {text!r} is not a HOST:PORT replication endpoint"
            )
        return host, int(port)

    replicate_to = _endpoint(args.replicate_to) if args.replicate_to else None
    standby_of = _endpoint(args.standby_of) if args.standby_of else None
    server = AssignmentServer(
        host=args.host,
        port=args.port,
        admission=AdmissionController(max_pending=args.max_pending),
        durability=durability,
        replicate_to=replicate_to,
        standby=standby_of is not None,
        auto_promote_after=args.auto_promote_after,
    )
    if standby_of is not None:
        # Standby state comes from the primary (plus anything this
        # standby already journaled before a restart).
        server.standby.primary = f"{standby_of[0]}:{standby_of[1]}"
        recovered = server.standby.recover_existing()
        role = "standby"
    else:
        recovered = server.recover_tenants()
        if engine is not None and args.tenant not in server.tenants:
            server.add_tenant(args.tenant, engine, default=True)
        role = "primary" if replicate_to is not None else "standalone"

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        installed: list[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(server.drain())
                )
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                break  # platform without loop signal handlers
        try:
            host, port = await server.start()
            print(
                json.dumps(
                    {
                        "event": "listening",
                        "host": host,
                        "port": port,
                        "tenants": server.tenants.ids(),
                        "recovered": recovered,
                        "durable": durability is not None,
                        "role": role,
                    }
                ),
                flush=True,
            )
            await server.wait_shutdown()
        finally:
            await server.stop()
            for signum in installed:
                loop.remove_signal_handler(signum)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _command_wal(args: argparse.Namespace) -> int:
    import json

    from repro.durability.inspect import inspect_root, inspect_tenant

    root = Path(args.root)
    if not root.exists():
        print(f"error: no WAL root at {root}", file=sys.stderr)
        return 2
    if args.tenant is not None:
        directory = root / args.tenant
        if not directory.is_dir():
            print(
                f"error: no journal directory for tenant {args.tenant!r} "
                f"under {root}",
                file=sys.stderr,
            )
            return 2
        report = {"root": str(root), "tenants": {args.tenant: inspect_tenant(directory)}}
    else:
        report = inspect_root(root)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if not report["tenants"]:
        print(f"{root}: no tenant journals")
        return 0
    print(f"WAL root {root}: {len(report['tenants'])} tenant journal(s)")
    for tenant_id, entry in report["tenants"].items():
        checkpoint = (
            f"checkpoint_seq={entry['checkpoint_seq']}"
            if entry["has_checkpoint"]
            else "no checkpoint"
        )
        print(
            f"  {tenant_id}: {checkpoint} last_seq={entry['last_seq']} "
            f"records={entry['records']} applied_keys={entry['applied_keys']} "
            f"dropped_bytes={entry['dropped_bytes']}"
        )
        for segment in entry["segments"]:
            print(f"    {segment}")
        for kind, count in entry["kinds"].items():
            print(f"    {kind}: {count}")
        if entry["dropped_bytes"]:
            print(
                f"    warning: {entry['dropped_bytes']} torn-tail bytes will "
                "be dropped at recovery"
            )
    return 0


def _command_session(args: argparse.Namespace) -> int:
    if (args.problem is None) == (args.store is None):
        print(
            "error: session needs exactly one of a problem file or --store",
            file=sys.stderr,
        )
        return 2
    if args.store is not None:
        from repro.store.sqlite import SqliteProblemStore

        engine = AssignmentEngine.from_store(
            SqliteProblemStore.open(args.store), parallel=_parallel_config(args)
        )
    else:
        engine = AssignmentEngine(
            load_problem(args.problem), parallel=_parallel_config(args)
        )
    lines = Path(args.requests).read_text(encoding="utf-8").splitlines()
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as output:
                served = serve_stream(engine, lines, output)
            print(f"wrote {served} responses to {args.output}")
        else:
            serve_stream(engine, lines, sys.stdout)
        if args.save_snapshot:
            engine.save_snapshot(args.save_snapshot)
            print(f"saved engine snapshot to {args.save_snapshot}")
    finally:
        # As in ``serve``: only close() commits the SQLite transaction, so
        # the store must close even when the snapshot write fails.
        if engine.store is not None:
            engine.store.close()
    return 0


def _command_store(args: argparse.Namespace) -> int:
    import json

    from repro.store.sqlite import SqliteProblemStore

    if args.store_command == "import":
        source = Path(args.source)
        if source.is_dir():
            from repro.store.csvio import import_problem_csv

            problem, bids = import_problem_csv(source)
        else:
            problem, bids = load_problem(str(source)), ()
        store = SqliteProblemStore.create(
            args.store, problem, blocks=args.blocks, block_cols=args.block_cols
        )
        if bids:
            store.record_bids(bids)
        description = store.describe()
        store.close()
        print(
            f"imported {description['reviewer_rows']} reviewers, "
            f"{description['paper_rows']} papers, "
            f"{description['conflict_rows']} conflicts and "
            f"{len(bids)} bids into {args.store}"
        )
        return 0
    if args.store_command == "export":
        store = SqliteProblemStore.open(args.store)
        try:
            problem = store.load_problem()
            bids = store.load_bids()
        finally:
            store.close()
        dest = Path(args.dest)
        if dest.suffix == ".json":
            save_problem(problem, str(dest))
            if bids:
                print(
                    f"note: {len(bids)} stored bids are not part of the "
                    "JSON problem format; export to a CSV directory to keep them",
                    file=sys.stderr,
                )
        else:
            from repro.store.csvio import export_problem_csv

            export_problem_csv(problem, dest, bids)
        print(
            f"exported {problem.num_reviewers} reviewers and "
            f"{problem.num_papers} papers to {dest}"
        )
        return 0
    store = SqliteProblemStore.open(args.store)
    try:
        print(json.dumps(store.describe(), indent=2, sort_keys=True))
    finally:
        store.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``wgrap`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "solve": _command_solve,
        "journal": _command_journal,
        "evaluate": _command_evaluate,
        "serve": _command_serve,
        "session": _command_session,
        "wal": _command_wal,
        "store": _command_store,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
