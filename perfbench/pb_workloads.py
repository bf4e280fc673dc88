"""Seeded inputs of the three workloads.

Everything a server or pipeline process receives is generated here from the
workload seed and written to files before that process starts: the problem
JSON, one request script per connection, and the text corpus.  The scripts
have a fixed length (a nominal rate times ``--seconds``) and a fixed
multiset of request kinds and journal targets (the mix and the Zipf weights
allocated exactly), so the seed decides their order, the bids and the
late-paper vectors.  Two commits run on the same seed do identical work, and
every request succeeds at any interleaving of the two connections:

* bids and journal queries only name initial papers (papers are never
  withdrawn) and reviewers outside the withdrawal reserve;
* each connection withdraws only reviewers from its own slice of the
  reserve, so no reviewer is withdrawn twice;
* every late paper carries a ``reviewer_workload`` large enough for all
  late papers of both scripts to be staffed after every withdrawal.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: seed of the tenant problem and its hot set.  Journal answers cost from
#: ~1 ms to ~400 ms depending on the paper, so a hot set drawn per run seed
#: would move the mean journal cost by 2x between seeds; the run seed draws
#: the request sequences instead.
INSTANCE_SEED = 0
NUM_PAPERS = 400
NUM_REVIEWERS = 120
NUM_TOPICS = 30
GROUP_SIZE = 3
CONFLICT_RATIO = 0.02
#: reviewer workload of the read-only tenant (minimal would be 10)
JOURNAL_HOT_WORKLOAD = 12
HOT_PAPERS = 64
ZIPF_EXPONENT = 1.1
#: journal argument variants: top 1 or top 3, exact or with a pruned pool
JOURNAL_VARIANTS = ({"top_k": 1}, {"top_k": 3}, {"top_k": 1, "prune": 16},
                    {"top_k": 3, "prune": 16})
CONNECTIONS = 2
#: requests per second of both connections together at the seed commit;
#: a script holds ``rate * seconds / CONNECTIONS`` requests
NOMINAL_RATE = {"journal-hot": 30.0, "churn-durable": 180.0}
#: request mixes (kind -> share)
JOURNAL_HOT_MIX = {"journal": 0.70, "evaluate": 0.20, "stats": 0.10}
CHURN_MIX = {"update_bids": 0.70, "add_paper": 0.15, "journal": 0.05,
             "evaluate": 0.05, "stats": 0.05}
#: reviewers each churn connection may withdraw (at most 1% of its requests)
WITHDRAWALS_PER_CONNECTION = 6
LATE_PAPER_POOL = 12

#: the batch pipeline's corpus and model sizes
CORPUS_AUTHORS = 32
CORPUS_SUBMISSIONS = 80
ATM_SWEEPS = 30
#: seconds one pipeline takes at the seed commit; a run makes
#: ``seconds / PIPELINE_NOMINAL_S`` pipelines, each in a fresh process
PIPELINE_NOMINAL_S = 7.0


def script_length(workload: str, seconds: float) -> int:
    """Requests per connection for a run of nominally ``seconds``."""
    return max(50, round(NOMINAL_RATE[workload] * seconds / CONNECTIONS))


def pipeline_runs(seconds: float) -> int:
    """Pipelines per run of nominally ``seconds``."""
    return max(1, round(seconds / PIPELINE_NOMINAL_S))


def paper_id(index: int) -> str:
    return f"paper-{index:04d}"


def reviewer_id(index: int) -> str:
    return f"reviewer-{index:04d}"


def write_problem(path: Path, workload: int) -> None:
    """The 400 x 120 x 30 tenant problem, written as problem JSON."""
    from repro.data.io import save_problem
    from repro.data.synthetic import make_problem

    problem = make_problem(
        NUM_PAPERS, NUM_REVIEWERS, num_topics=NUM_TOPICS, group_size=GROUP_SIZE,
        seed=INSTANCE_SEED, conflict_ratio=CONFLICT_RATIO, reviewer_workload=workload,
    )
    save_problem(problem, path)


def _allocate(shares: dict, count: int, rng: np.random.Generator) -> list:
    """Exactly ``count`` keys split by ``shares`` (largest remainder), shuffled.

    Every seed gets the same multiset of keys and only a different order,
    so a run's mean cost does not depend on which keys the seed drew.
    """
    total = sum(shares.values())
    exact = {key: count * share / total for key, share in shares.items()}
    counts = {key: int(value) for key, value in exact.items()}
    leftover = count - sum(counts.values())
    for key in sorted(exact, key=lambda k: exact[k] - counts[k], reverse=True)[:leftover]:
        counts[key] += 1
    keys = [key for key in shares for _ in range(counts[key])]
    return [keys[int(i)] for i in rng.permutation(len(keys))]


def hot_papers() -> list[str]:
    """The 64 hot papers, most popular first."""
    rng = np.random.default_rng([INSTANCE_SEED, 1])
    chosen = rng.choice(NUM_PAPERS, size=HOT_PAPERS, replace=False)
    return [paper_id(int(index)) for index in chosen]


def _journal_targets(count: int, rng: np.random.Generator) -> list[tuple]:
    """``count`` (paper, variant) pairs: Zipf over the hot set, variants uniform."""
    weights = 1.0 / np.arange(1, HOT_PAPERS + 1) ** ZIPF_EXPONENT
    shares = {(paper, variant): float(weight)
              for paper, weight in zip(hot_papers(), weights)
              for variant in range(len(JOURNAL_VARIANTS))}
    return _allocate(shares, count, rng)


def _journal(target: tuple, request_id: str) -> dict:
    paper, variant = target
    return {"kind": "journal", "paper_id": paper, **JOURNAL_VARIANTS[variant], "id": request_id}


def journal_hot(seed: int, seconds: float) -> dict:
    """Warm-up requests and per-connection scripts of ``journal-hot``."""
    setup = [{"kind": "solve", "solver": "Greedy", "id": "setup-solve"}]
    setup += [_journal((paper, 0), f"warm-{n}") for n, paper in enumerate(hot_papers())]
    length = script_length("journal-hot", seconds)
    scripts = []
    for connection in range(CONNECTIONS):
        rng = np.random.default_rng([seed, 2, connection])
        kinds = _allocate(JOURNAL_HOT_MIX, length, rng)
        targets = iter(_journal_targets(kinds.count("journal"), rng))
        script = []
        for n, kind in enumerate(kinds):
            request_id = f"c{connection}-{n}"
            if kind == "journal":
                script.append(_journal(next(targets), request_id))
            elif kind == "evaluate":
                script.append({"kind": "evaluate", "include_ratio": False, "id": request_id})
            else:
                script.append({"kind": "stats", "id": request_id})
        scripts.append(script)
    return {"setup": setup, "scripts": scripts, "workload": JOURNAL_HOT_WORKLOAD}


def churn_durable(seed: int, seconds: float) -> dict:
    """Set-up requests, per-connection scripts and reviewer workload of ``churn-durable``."""
    rng = np.random.default_rng([INSTANCE_SEED, 3])
    reserve = [reviewer_id(int(i)) for i in rng.choice(
        NUM_REVIEWERS, size=CONNECTIONS * WITHDRAWALS_PER_CONNECTION, replace=False)]
    bidders = [reviewer_id(i) for i in range(NUM_REVIEWERS) if reviewer_id(i) not in reserve]
    length = script_length("churn-durable", seconds)
    withdrawals = min(WITHDRAWALS_PER_CONNECTION, max(1, length // 100))
    scripts = []
    late_papers = 0
    for connection in range(CONNECTIONS):
        rng = np.random.default_rng([seed, 4, connection])
        kinds: list = _allocate(CHURN_MIX, length - withdrawals, rng)
        targets = iter(_journal_targets(kinds.count("journal"), rng))
        for slot, position in enumerate(sorted(rng.choice(length, size=withdrawals, replace=False))):
            kinds.insert(int(position), ("withdraw_reviewer",
                                         reserve[connection * WITHDRAWALS_PER_CONNECTION + slot]))
        script = []
        for n, kind in enumerate(kinds):
            request_id = f"c{connection}-{n}"
            if isinstance(kind, tuple):
                script.append({"kind": "withdraw_reviewer", "reviewer_id": kind[1], "id": request_id})
            elif kind == "update_bids":
                bids = [[bidders[int(rng.integers(len(bidders)))],
                         paper_id(int(rng.integers(NUM_PAPERS))),
                         float(rng.integers(1, 5)) / 4.0]
                        for _ in range(int(rng.integers(1, 4)))]
                script.append({"kind": "update_bids", "bids": bids, "id": request_id})
            elif kind == "add_paper":
                vector = rng.dirichlet(np.full(NUM_TOPICS, 0.3)).tolist()
                script.append({
                    "kind": "add_paper",
                    "paper": {"id": f"late-c{connection}-{n:05d}", "vector": vector},
                    "pool_size": LATE_PAPER_POOL,
                    "id": request_id,
                })
                late_papers += 1
            elif kind == "journal":
                script.append(_journal(next(targets), request_id))
            elif kind == "evaluate":
                script.append({"kind": "evaluate", "include_ratio": False, "id": request_id})
            else:
                script.append({"kind": "stats", "id": request_id})
        scripts.append(script)
    remaining = NUM_REVIEWERS - CONNECTIONS * withdrawals
    workload = math.ceil(GROUP_SIZE * (NUM_PAPERS + late_papers) / remaining) + 2
    for script in scripts:
        for request in script:
            if request["kind"] == "add_paper":
                request["reviewer_workload"] = workload
    setup = [{"kind": "solve", "solver": "Greedy", "id": "setup-solve"}]
    return {"setup": setup, "scripts": scripts, "workload": workload}


def write_scripts(directory: Path, scripts: list[list[dict]]) -> list[Path]:
    """One JSON-lines file per connection."""
    paths = []
    for connection, script in enumerate(scripts):
        path = directory / f"script-c{connection}.jsonl"
        path.write_text("".join(json.dumps(request) + "\n" for request in script))
        paths.append(path)
    return paths


def write_corpus(path: Path) -> None:
    """The publication and submission text of ``pipeline-batch``.

    The text is fixed (:data:`INSTANCE_SEED`), so every run samples the
    same number of tokens; the run seed seeds the ATM sampler and the
    solver, which changes the topics, the problem and the assignment.
    """
    from repro.data.synthetic import SyntheticCorpusGenerator

    corpus = SyntheticCorpusGenerator(
        num_topics=NUM_TOPICS, words_per_topic=20, background_words=60, seed=INSTANCE_SEED
    ).generate(
        num_authors=CORPUS_AUTHORS,
        publications_per_author=(3, 6),
        num_submissions=CORPUS_SUBMISSIONS,
        tokens_per_document=(60, 120),
    )
    payload = {
        "publications": [
            {"id": d.id, "tokens": list(d.tokens), "authors": list(d.authors)}
            for d in corpus.publications.documents
        ],
        "submissions": [{"id": d.id, "tokens": list(d.tokens)} for d in corpus.submissions],
    }
    path.write_text(json.dumps(payload))
