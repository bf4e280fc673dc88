"""The Author-Topic Model (ATM) with collapsed Gibbs sampling.

Appendix A of the paper extracts reviewer expertise vectors with the
Author-Topic Model of Rosen-Zvi et al. (2004): every token of a publication
is generated by first picking one of the paper's authors uniformly, then a
topic from that author's topic distribution, then the word from the topic's
word distribution.  After Gibbs sampling, each author's (reviewer's)
normalised author-topic counts are exactly the topic vector used by WGRAP,
and the topic-word distributions feed the EM inference of submission
vectors (:mod:`repro.topics.em`).

The sampler follows :mod:`repro.topics.lda`: word-topic counts are kept
transposed, the priors are added once and maintained per changed cell, and
the document's authors form one ``(A_d, T)`` block for the whole document,
so a token draw is six ufunc calls over preallocated buffers.  The
arithmetic is the textbook per-token sampler's, elementwise and
reduction-for-reduction, so a fixed seed gives bit-identical models
(pinned by ``tests/test_topic_models.py``).

This module replaces the third-party ATM implementation the paper used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.topics.corpus import Corpus

__all__ = ["AuthorTopicModel", "ATMResult"]


@dataclass(frozen=True)
class ATMResult:
    """A fitted Author-Topic Model.

    Attributes
    ----------
    author_topic:
        ``(A, T)`` matrix; row ``a`` is author ``a``'s topic distribution —
        the reviewer topic vector of the paper.
    topic_word:
        ``(T, V)`` matrix; row ``t`` is topic ``t``'s word distribution
        (``p(w | t)`` of Equation 11).
    authors:
        Author identifiers, aligned with the rows of ``author_topic``.
    log_likelihood_trace:
        Per-iteration log-likelihood trace.
    """

    author_topic: np.ndarray
    topic_word: np.ndarray
    authors: tuple[str, ...]
    log_likelihood_trace: tuple[float, ...]

    @property
    def num_topics(self) -> int:
        """Number of topics ``T``."""
        return int(self.topic_word.shape[0])

    def author_vector(self, author: str) -> np.ndarray:
        """Topic vector of one author."""
        position = self.authors.index(author)
        return self.author_topic[position]

    def top_words(self, topic: int, vocabulary, count: int = 10) -> list[str]:
        """The ``count`` highest-probability words of a topic."""
        order = np.argsort(-self.topic_word[topic])[:count]
        return [vocabulary.word_of(int(word_id)) for word_id in order]


class AuthorTopicModel:
    """Collapsed Gibbs sampler for the Author-Topic Model.

    Parameters
    ----------
    num_topics:
        Number of topics ``T`` (30 in the paper's experiments).
    alpha:
        Dirichlet prior of the author-topic distributions.
    beta:
        Dirichlet prior of the topic-word distributions.
    iterations:
        Number of Gibbs sweeps.
    seed:
        Random seed.
    """

    def __init__(
        self,
        num_topics: int,
        alpha: float = 0.1,
        beta: float = 0.01,
        iterations: int = 200,
        seed: int | None = 0,
    ) -> None:
        if num_topics < 1:
            raise ConfigurationError("num_topics must be at least 1")
        if alpha <= 0 or beta <= 0:
            raise ConfigurationError("alpha and beta must be positive")
        if iterations < 1:
            raise ConfigurationError("iterations must be at least 1")
        self._num_topics = num_topics
        self._alpha = alpha
        self._beta = beta
        self._iterations = iterations
        self._seed = seed

    def fit(self, corpus: Corpus) -> ATMResult:
        """Run the Gibbs sampler on a corpus whose documents carry authors."""
        if not corpus.authors:
            raise ConfigurationError(
                "the Author-Topic Model needs documents with author identifiers"
            )
        for position, document in enumerate(corpus.documents):
            if not document.authors:
                raise ConfigurationError(
                    f"document {document.id!r} (position {position}) has no authors"
                )

        rng = np.random.default_rng(self._seed)
        num_topics = self._num_topics
        num_words = corpus.num_words
        num_authors = len(corpus.authors)
        alpha = self._alpha
        beta = self._beta
        alpha_mass = alpha * num_topics
        beta_mass = beta * num_words

        documents = [
            np.asarray(corpus.encoded_document(d), dtype=np.int64)
            for d in range(corpus.num_documents)
        ]
        document_authors = [
            np.asarray(corpus.author_indices(d), dtype=np.int64)
            for d in range(corpus.num_documents)
        ]

        author_topic_counts = np.zeros((num_authors, num_topics), dtype=np.float64)
        author_totals = np.zeros(num_authors, dtype=np.float64)
        # Transposed layout: word_topic_counts[w] is the contiguous live
        # topic distribution of word w (the hot read of the inner loop).
        word_topic_counts = np.zeros((num_words, num_topics), dtype=np.float64)
        topic_totals = np.zeros(num_topics, dtype=np.float64)

        # A token's author is kept as its slot in the document's author list.
        topic_assignments: list[np.ndarray] = []
        slot_assignments: list[np.ndarray] = []

        # Random initialisation: every token gets a random (author, topic);
        # one batched scatter-add per document, same draws as a per-token loop.
        for words, authors in zip(documents, document_authors):
            topics = rng.integers(0, num_topics, size=words.size)
            slots = rng.integers(0, authors.size, size=words.size)
            topic_assignments.append(topics)
            slot_assignments.append(slots)
            chosen_authors = authors[slots]
            np.add.at(author_topic_counts, (chosen_authors, topics), 1.0)
            np.add.at(author_totals, chosen_authors, 1.0)
            np.add.at(word_topic_counts, (words, topics), 1.0)
            np.add.at(topic_totals, topics, 1.0)

        # The conditional's numerators and denominators are maintained as
        # count + prior.  A changed cell is recomputed from its exact count,
        # never incremented by one: (c + prior) - 1 need not round like
        # (c - 1) + prior, and the textbook computes the latter.  Small
        # count tables are Python lists: a list item costs a fraction of a
        # numpy scalar access.
        word_numerators = word_topic_counts + beta
        topic_denominators = topic_totals + beta_mass
        topic_counts = topic_totals.tolist()
        most_cells = num_topics * max(authors.size for authors in document_authors)
        joint_buffer = np.empty(most_cells, dtype=np.float64)
        cumulative_buffer = np.empty(most_cells, dtype=np.float64)
        word_block = np.empty(num_topics, dtype=np.float64)

        trace: list[float] = []
        for _ in range(self._iterations):
            for words, authors, topics, slots in zip(
                documents, document_authors, topic_assignments, slot_assignments
            ):
                # The document's (A_d, T) author block: only its authors'
                # counts change while its tokens are resampled, and they are
                # written back when the document ends.
                block = author_topic_counts[authors]
                author_numerators = block + alpha
                author_denominators = author_totals[authors, None] + alpha_mass
                block_counts = block.tolist()
                block_totals = author_totals[authors].tolist()
                joint = joint_buffer[:block.size]
                joint_block = joint.reshape(block.shape)
                cumulative = cumulative_buffer[:block.size]
                topic_list = topics.tolist()
                slot_list = slots.tolist()
                # Every conditional is strictly positive (alpha, beta > 0),
                # so each token consumes exactly one uniform draw; one
                # batched draw per document is stream-identical to a
                # per-token rng.random() call.
                randoms = rng.random(words.size).tolist()
                for position, word in enumerate(words.tolist()):
                    topic = topic_list[position]
                    slot = slot_list[position]
                    word_counts = word_topic_counts[word]
                    word_row = word_numerators[word]
                    # Remove the token from the counts.
                    count = block_counts[slot][topic] - 1.0
                    block_counts[slot][topic] = count
                    author_numerators[slot, topic] = count + alpha
                    count = block_totals[slot] - 1.0
                    block_totals[slot] = count
                    author_denominators[slot, 0] = count + alpha_mass
                    count = word_counts[topic] - 1.0
                    word_counts[topic] = count
                    word_row[topic] = count + beta
                    count = topic_counts[topic] - 1.0
                    topic_counts[topic] = count
                    topic_denominators[topic] = count + beta_mass
                    # Joint conditional over (author of the document, topic),
                    # elementwise (author + alpha) / (author total + alpha * T)
                    # * (word + beta) / (topic total + beta * V), then an
                    # inverse-CDF draw over the flattened block.  The total
                    # is always positive, since the constructor rejects
                    # alpha or beta <= 0.
                    np.divide(author_numerators, author_denominators, out=joint_block)
                    np.divide(word_row, topic_denominators, out=word_block)
                    np.multiply(joint_block, word_block, out=joint_block)
                    threshold = randoms[position] * np.add.reduce(joint)
                    np.add.accumulate(joint, out=cumulative)
                    cell = int(cumulative.searchsorted(threshold))
                    slot, topic = divmod(cell, num_topics)
                    topic_list[position] = topic
                    slot_list[position] = slot
                    # Add it back under the drawn (author, topic).
                    count = block_counts[slot][topic] + 1.0
                    block_counts[slot][topic] = count
                    author_numerators[slot, topic] = count + alpha
                    count = block_totals[slot] + 1.0
                    block_totals[slot] = count
                    author_denominators[slot, 0] = count + alpha_mass
                    count = word_counts[topic] + 1.0
                    word_counts[topic] = count
                    word_row[topic] = count + beta
                    count = topic_counts[topic] + 1.0
                    topic_counts[topic] = count
                    topic_denominators[topic] = count + beta_mass
                topics[:] = topic_list
                slots[:] = slot_list
                author_topic_counts[authors] = block_counts
                author_totals[authors] = block_totals

            # The last sweep's distributions are the fitted model.
            topic_totals = np.array(topic_counts)
            topic_word_counts = np.ascontiguousarray(word_topic_counts.T)
            author_topic = (author_topic_counts + alpha) / (
                author_totals[:, None] + alpha_mass
            )
            topic_word = (topic_word_counts + beta) / (topic_totals[:, None] + beta_mass)
            trace.append(float(
                (author_topic_counts * np.log(author_topic + 1e-12)).sum()
                + (topic_word_counts * np.log(topic_word + 1e-12)).sum()
            ))

        return ATMResult(
            author_topic=author_topic,
            topic_word=topic_word,
            authors=corpus.authors,
            log_likelihood_trace=tuple(trace),
        )
