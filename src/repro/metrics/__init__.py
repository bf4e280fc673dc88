"""Quality metrics and per-paper analysis used by the experiments."""

from repro.metrics.analysis import (
    PaperCoverageReport,
    TopicCoverage,
    coverage_histogram,
    paper_topic_coverage,
)
from repro.metrics.quality import (
    SuperiorityBreakdown,
    lowest_coverage_score,
    optimality_ratio,
    superiority_ratio,
)

__all__ = [
    "PaperCoverageReport",
    "TopicCoverage",
    "coverage_histogram",
    "paper_topic_coverage",
    "SuperiorityBreakdown",
    "lowest_coverage_score",
    "optimality_ratio",
    "superiority_ratio",
]
