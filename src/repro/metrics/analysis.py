"""Per-paper, per-topic analysis used by the case studies (Figures 19-20).

The paper's case studies inspect how well the assigned reviewer group
covers each of a paper's dominant topics, topic by topic, and which
reviewer provides that coverage.  :func:`paper_topic_coverage` produces
exactly that breakdown; :func:`coverage_histogram` summarises the
distribution of per-paper coverage across a whole conference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.exceptions import ConfigurationError

__all__ = [
    "TopicCoverage",
    "PaperCoverageReport",
    "paper_topic_coverage",
    "coverage_histogram",
]


@dataclass(frozen=True)
class TopicCoverage:
    """Coverage of one topic of one paper by its assigned group."""

    topic: int
    paper_weight: float
    group_weight: float
    covered_weight: float
    best_reviewer_id: str | None

    @property
    def is_fully_covered(self) -> bool:
        """Whether some reviewer matches or exceeds the paper's weight."""
        return self.group_weight >= self.paper_weight


@dataclass(frozen=True)
class PaperCoverageReport:
    """Case-study style report for a single paper (Figure 19 / 20)."""

    paper_id: str
    paper_title: str
    reviewer_ids: tuple[str, ...]
    reviewer_names: tuple[str, ...]
    score: float
    topics: tuple[TopicCoverage, ...]

    def top_topics(self, count: int = 5) -> tuple[TopicCoverage, ...]:
        """The ``count`` topics with the highest paper weight."""
        ranked = sorted(self.topics, key=lambda entry: -entry.paper_weight)
        return tuple(ranked[:count])


def paper_topic_coverage(
    problem: WGRAPProblem, assignment: Assignment, paper_id: str
) -> PaperCoverageReport:
    """Break a paper's coverage down per topic, naming the best reviewer.

    ``covered_weight`` is the scoring's contribution ``f(g[t], p[t])``.
    """
    paper = problem.paper_by_id(paper_id)
    reviewer_ids = tuple(sorted(assignment.reviewers_of(paper_id)))
    view = problem.dense_view()
    paper_idx = view.paper_pos[paper_id]
    group_vector = view.group_vectors(assignment)[paper_idx]
    covered = problem.scoring.topic_contribution(group_vector, paper.vector.values)

    entries: list[TopicCoverage] = []
    for topic in range(problem.num_topics):
        paper_weight = float(paper.vector[topic])
        group_weight = float(group_vector[topic])
        best_reviewer: str | None = None
        if reviewer_ids:
            weights = {
                reviewer_id: problem.reviewer_by_id(reviewer_id).vector[topic]
                for reviewer_id in reviewer_ids
            }
            best_reviewer = max(weights, key=weights.get)
        entries.append(
            TopicCoverage(
                topic=topic,
                paper_weight=paper_weight,
                group_weight=group_weight,
                covered_weight=float(covered[topic]),
                best_reviewer_id=best_reviewer,
            )
        )

    reviewer_names = tuple(
        problem.reviewer_by_id(reviewer_id).name for reviewer_id in reviewer_ids
    )
    return PaperCoverageReport(
        paper_id=paper.id,
        paper_title=paper.title,
        reviewer_ids=reviewer_ids,
        reviewer_names=reviewer_names,
        score=view.paper_score(group_vector, paper_idx),
        topics=tuple(entries),
    )


def coverage_histogram(
    problem: WGRAPProblem, assignment: Assignment, bins: int = 10
) -> list[tuple[float, float, int]]:
    """Per-paper coverage scores binned over ``[0, max(1, top score)]``."""
    if bins < 1:
        raise ConfigurationError("bins must be at least 1")
    scores = np.array(list(problem.paper_scores(assignment).values()))
    upper = max(1.0, float(scores.max()))
    counts, edges = np.histogram(scores, bins=bins, range=(0.0, upper))
    return [
        (float(edges[index]), float(edges[index + 1]), int(count))
        for index, count in enumerate(counts)
    ]
