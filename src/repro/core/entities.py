"""Domain entities: reviewers, papers and reviewer groups.

These classes are intentionally lightweight.  They bind an identifier and a
bit of human-readable metadata to a :class:`~repro.core.vectors.TopicVector`;
all of the optimisation machinery works on the vectors and on integer
indices managed by :class:`~repro.core.problem.WGRAPProblem`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.vectors import TopicVector, VectorLike, as_topic_vector
from repro.exceptions import ConfigurationError

__all__ = ["Reviewer", "Paper", "ReviewerGroup", "EntityIndex"]


@dataclass(frozen=True)
class Reviewer:
    """A candidate reviewer.

    Attributes
    ----------
    id:
        Unique identifier (e.g. a DBLP author key or an e-mail address).
    vector:
        Topic vector describing the reviewer's expertise.
    name:
        Human readable name; defaults to the identifier.
    h_index:
        Optional bibliometric indicator used by the expertise-scaling
        experiment of Appendix C (Equation 15).
    metadata:
        Arbitrary extra fields (affiliation, seniority, ...).  Never
        interpreted by the library.
    """

    id: str
    vector: TopicVector
    name: str = ""
    h_index: int | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("a reviewer must have a non-empty id")
        object.__setattr__(self, "vector", as_topic_vector(self.vector))
        if not self.name:
            object.__setattr__(self, "name", self.id)
        if self.h_index is not None and self.h_index < 0:
            raise ConfigurationError("h_index must be non-negative")

    @property
    def num_topics(self) -> int:
        """Number of topics in the reviewer's expertise vector."""
        return self.vector.num_topics

    def expertise_on(self, topic: int) -> float:
        """The reviewer's weight on a single topic."""
        return self.vector[topic]

    def with_vector(self, vector: VectorLike) -> "Reviewer":
        """A copy of this reviewer with a replaced expertise vector."""
        return Reviewer(
            id=self.id,
            vector=as_topic_vector(vector),
            name=self.name,
            h_index=self.h_index,
            metadata=self.metadata,
        )

    @classmethod
    def from_weights(
        cls,
        reviewer_id: str,
        weights: VectorLike,
        num_topics: int | None = None,
        **kwargs: Any,
    ) -> "Reviewer":
        """Build a reviewer directly from raw topic weights."""
        return cls(id=reviewer_id, vector=as_topic_vector(weights, num_topics), **kwargs)


@dataclass(frozen=True)
class Paper:
    """A submission that needs to be reviewed.

    Attributes
    ----------
    id:
        Unique identifier (e.g. a submission number).
    vector:
        Topic vector describing the paper's content.
    title:
        Human readable title; defaults to the identifier.
    abstract:
        Optional raw abstract text (kept for topic-extraction pipelines and
        case-study reports; never required by the solvers).
    metadata:
        Arbitrary extra fields (venue, year, authors, keywords, ...).
    """

    id: str
    vector: TopicVector
    title: str = ""
    abstract: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("a paper must have a non-empty id")
        object.__setattr__(self, "vector", as_topic_vector(self.vector))
        if not self.title:
            object.__setattr__(self, "title", self.id)

    @property
    def num_topics(self) -> int:
        """Number of topics in the paper's content vector."""
        return self.vector.num_topics

    def relevance_to(self, topic: int) -> float:
        """The paper's weight on a single topic."""
        return self.vector[topic]

    def with_vector(self, vector: VectorLike) -> "Paper":
        """A copy of this paper with a replaced content vector."""
        return Paper(
            id=self.id,
            vector=as_topic_vector(vector),
            title=self.title,
            abstract=self.abstract,
            metadata=self.metadata,
        )

    @classmethod
    def from_weights(
        cls,
        paper_id: str,
        weights: VectorLike,
        num_topics: int | None = None,
        **kwargs: Any,
    ) -> "Paper":
        """Build a paper directly from raw topic weights."""
        return cls(id=paper_id, vector=as_topic_vector(weights, num_topics), **kwargs)


class ReviewerGroup:
    """An (ordered, duplicate-free) set of reviewers assigned to one paper.

    The group's *expertise vector* is the per-topic maximum over its members
    (Definition 2 of the paper): the most expert member on a topic dominates
    the group's confidence on that topic.
    """

    __slots__ = ("_reviewers", "_by_id")

    def __init__(self, reviewers: Iterable[Reviewer] = ()) -> None:
        self._reviewers: list[Reviewer] = []
        self._by_id: dict[str, Reviewer] = {}
        for reviewer in reviewers:
            self.add(reviewer)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, reviewer: Reviewer) -> None:
        """Add a reviewer; adding an already-present reviewer is a no-op."""
        if reviewer.id in self._by_id:
            return
        if self._reviewers and reviewer.num_topics != self._reviewers[0].num_topics:
            raise ConfigurationError(
                "all reviewers in a group must share the same number of topics"
            )
        self._reviewers.append(reviewer)
        self._by_id[reviewer.id] = reviewer

    def remove(self, reviewer_id: str) -> Reviewer:
        """Remove and return a member by id.

        Raises
        ------
        KeyError
            If the reviewer is not in the group.
        """
        reviewer = self._by_id.pop(reviewer_id)
        self._reviewers = [member for member in self._reviewers if member.id != reviewer_id]
        return reviewer

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._reviewers)

    def __iter__(self) -> Iterator[Reviewer]:
        return iter(self._reviewers)

    def __contains__(self, reviewer: Reviewer | str) -> bool:
        reviewer_id = reviewer.id if isinstance(reviewer, Reviewer) else reviewer
        return reviewer_id in self._by_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReviewerGroup):
            return NotImplemented
        return self.ids() == other.ids()

    def __repr__(self) -> str:
        members = ", ".join(sorted(self._by_id))
        return f"ReviewerGroup({{{members}}})"

    def ids(self) -> frozenset[str]:
        """The set of member identifiers."""
        return frozenset(self._by_id)

    def members(self) -> tuple[Reviewer, ...]:
        """The members in insertion order."""
        return tuple(self._reviewers)

    @property
    def vector(self) -> TopicVector:
        """The group expertise vector: the per-topic maximum over members.

        Raises
        ------
        ConfigurationError
            If the group is empty (an empty group has no dimensionality).
        """
        if not self._reviewers:
            raise ConfigurationError("an empty reviewer group has no expertise vector")
        return TopicVector.group_maximum(reviewer.vector for reviewer in self._reviewers)

    def vector_or_zero(self, num_topics: int) -> TopicVector:
        """Like :attr:`vector`, but an empty group yields the zero vector."""
        if not self._reviewers:
            return TopicVector.zeros(num_topics)
        return self.vector

    def union(self, other: "ReviewerGroup") -> "ReviewerGroup":
        """A new group containing the members of both groups."""
        merged = ReviewerGroup(self._reviewers)
        for reviewer in other:
            merged.add(reviewer)
        return merged

    def with_member(self, reviewer: Reviewer) -> "ReviewerGroup":
        """A new group equal to this one plus ``reviewer``."""
        extended = ReviewerGroup(self._reviewers)
        extended.add(reviewer)
        return extended

    def without_member(self, reviewer_id: str) -> "ReviewerGroup":
        """A new group equal to this one minus the reviewer with ``reviewer_id``."""
        return ReviewerGroup(
            reviewer for reviewer in self._reviewers if reviewer.id != reviewer_id
        )


class EntityIndex:
    """Id/position bookkeeping of one kind of entity (papers or reviewers).

    Maps each id to its position and rejects duplicate ids; the problem
    models keep one per entity kind.
    """

    __slots__ = ("ids", "positions")

    def __init__(self, ids: Sequence[str], kind: str) -> None:
        self.ids: tuple[str, ...] = tuple(ids)
        self.positions: dict[str, int] = {}
        for position, identifier in enumerate(self.ids):
            if identifier in self.positions:
                raise ConfigurationError(f"duplicate {kind} id: {identifier!r}")
            self.positions[identifier] = position

    def index_of(self, identifier: str, kind: str) -> int:
        try:
            return self.positions[identifier]
        except KeyError:
            raise KeyError(f"unknown {kind} id: {identifier!r}") from None
