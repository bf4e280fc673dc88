"""The batch pipeline process: text -> ATM topics -> EM vectors -> SDGA-SRA -> evaluate.

Usage::

    python3 pb_pipeline.py CORPUS_JSON OUTPUT_JSON SEED [SPANS_JSON]

Set-up (imports, reading the corpus, building the publication corpus and
its vocabulary) happens first; the process then prints ``ready`` and waits
for one line on stdin: ``go`` runs the pipeline through the public API and
writes the problem, assignment, score and timings to OUTPUT_JSON; anything
else exits.  With SPANS_JSON the layer boundaries are traced
(:mod:`pb_spans`) and the spans written there at the end.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import pb_spans  # noqa: E402
import pb_workloads  # noqa: E402


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv: list[str]) -> int:
    corpus_path, output_path, seed = argv[0], argv[1], int(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    recorder = pb_spans.install() if spans_path is not None else None

    from repro.data.io import assignment_to_dict, problem_to_dict
    from repro.service.engine import AssignmentEngine
    from repro.topics import TopicExtractionPipeline
    from repro.topics.corpus import Corpus, Document

    payload = json.loads(Path(corpus_path).read_text())
    publications = Corpus([
        Document(id=d["id"], tokens=tuple(d["tokens"]), authors=tuple(d["authors"]))
        for d in payload["publications"]
    ])
    submissions = [Document(id=d["id"], tokens=tuple(d["tokens"]))
                   for d in payload["submissions"]]
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    cpu_started = time.process_time()
    started = time.perf_counter()
    pipeline = TopicExtractionPipeline(
        num_topics=pb_workloads.NUM_TOPICS, atm_iterations=pb_workloads.ATM_SWEEPS, seed=seed
    ).fit(publications)
    problem = pipeline.build_problem(submissions, group_size=pb_workloads.GROUP_SIZE)
    engine = AssignmentEngine(problem)
    result = engine.solve("SDGA-SRA")
    evaluation = engine.evaluate(include_ratio=True)
    pipeline_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started

    Path(output_path).write_text(json.dumps({
        "pipeline_s": pipeline_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "tokens": publications.num_tokens,
        "score": result.score,
        "evaluation": evaluation,
        "problem": problem_to_dict(problem),
        "assignment": assignment_to_dict(result.assignment),
        "window": [started, started + pipeline_s],
    }))
    if recorder is not None:
        recorder.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
