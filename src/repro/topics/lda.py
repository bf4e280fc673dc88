"""Latent Dirichlet Allocation with collapsed Gibbs sampling.

LDA (Blei, Ng and Jordan 2003) is the basic topic model the paper builds
on; the Author-Topic Model of :mod:`repro.topics.atm` extends it with an
author layer.  Both share the same collapsed Gibbs machinery: the topic of
every token is resampled from its conditional distribution given all other
assignments, and the converged counts yield the topic-word and
document-topic distributions.

The sampler keeps the live word-topic counts transposed — ``(V, T)``
instead of the textbook ``(T, V)`` — so the per-token topic distribution
of word ``w`` reads a zero-copy contiguous row view instead of gathering a
strided column, and computes each token's conditional distribution with
in-place vector operations over preallocated buffers — no per-token
temporaries.  Initialisation counts are accumulated with batched
scatter-adds per document.  The arithmetic is identical, elementwise and
reduction-for-reduction, to the textbook per-token formulation, so the
sampler consumes the random stream the same way and produces bit-identical
models under a fixed seed (pinned by ``tests/test_topic_models.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.topics.corpus import Corpus

__all__ = ["LDAModel", "LatentDirichletAllocation"]


@dataclass(frozen=True)
class LDAModel:
    """A fitted LDA model.

    Attributes
    ----------
    topic_word:
        ``(T, V)`` matrix; row ``t`` is the word distribution of topic ``t``.
    document_topic:
        ``(D, T)`` matrix; row ``d`` is the topic mixture of document ``d``.
    log_likelihood_trace:
        Per-iteration joint log-likelihood (useful to check convergence).
    """

    topic_word: np.ndarray
    document_topic: np.ndarray
    log_likelihood_trace: tuple[float, ...]

    @property
    def num_topics(self) -> int:
        """Number of topics ``T``."""
        return int(self.topic_word.shape[0])

    def top_words(self, topic: int, vocabulary, count: int = 10) -> list[str]:
        """The ``count`` highest-probability words of a topic."""
        order = np.argsort(-self.topic_word[topic])[:count]
        return [vocabulary.word_of(int(word_id)) for word_id in order]


class LatentDirichletAllocation:
    """Collapsed Gibbs sampler for LDA.

    Parameters
    ----------
    num_topics:
        Number of topics ``T`` (the paper uses 30).
    alpha:
        Symmetric Dirichlet prior on document-topic mixtures.
    beta:
        Symmetric Dirichlet prior on topic-word distributions.
    iterations:
        Number of Gibbs sweeps over the corpus.
    seed:
        Random seed for reproducibility.
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

    def fit(self, corpus: Corpus) -> LDAModel:
        """Run the Gibbs sampler and return the fitted model."""
        rng = np.random.default_rng(self._seed)
        num_topics = self._num_topics
        num_words = corpus.num_words
        num_documents = corpus.num_documents
        alpha = self._alpha
        beta = self._beta
        beta_mass = self._beta * num_words

        documents = [np.asarray(corpus.encoded_document(d), dtype=np.int64)
                     for d in range(num_documents)]

        document_topic_counts = np.zeros((num_documents, num_topics), dtype=np.float64)
        # Transposed layout: word_topic_counts[w] is the contiguous live
        # topic distribution of word w (the hot read of the inner loop).
        word_topic_counts = np.zeros((num_words, num_topics), dtype=np.float64)
        topic_totals = np.zeros(num_topics, dtype=np.float64)
        assignments: list[np.ndarray] = []

        # Random initialisation (one batched scatter-add per document; the
        # topic draws are the same as the historical per-token loop).
        for document_index, words in enumerate(documents):
            topics = rng.integers(0, num_topics, size=words.size)
            assignments.append(topics)
            np.add.at(document_topic_counts[document_index], topics, 1.0)
            np.add.at(word_topic_counts, (words, topics), 1.0)
            np.add.at(topic_totals, topics, 1.0)

        weights = np.empty(num_topics, dtype=np.float64)
        scratch = np.empty(num_topics, dtype=np.float64)
        cumulative = np.empty(num_topics, dtype=np.float64)
        trace: list[float] = []
        for _ in range(self._iterations):
            for document_index, words in enumerate(documents):
                topics = assignments[document_index]
                topic_list = topics.tolist()
                word_list = words.tolist()
                doc_counts = document_topic_counts[document_index]
                # Every conditional is strictly positive (alpha, beta > 0),
                # so each token consumes exactly one uniform draw; one
                # batched draw per document is stream-identical to the
                # historical per-token rng.random() calls.
                randoms = rng.random(words.size).tolist()
                for position in range(words.size):
                    word = word_list[position]
                    old_topic = topic_list[position]
                    word_row = word_topic_counts[word]
                    # Remove the token from the counts.
                    doc_counts[old_topic] -= 1
                    word_row[old_topic] -= 1
                    topic_totals[old_topic] -= 1
                    # Conditional distribution over topics — elementwise
                    # identical to
                    # (doc + alpha) * (word + beta) / (totals + beta * V).
                    np.add(doc_counts, alpha, out=weights)
                    np.add(word_row, beta, out=scratch)
                    np.multiply(weights, scratch, out=weights)
                    np.add(topic_totals, beta_mass, out=scratch)
                    np.divide(weights, scratch, out=weights)
                    # Inverse-CDF draw.  The total is always positive, since
                    # the constructor rejects alpha or beta <= 0.
                    threshold = randoms[position] * np.add.reduce(weights)
                    np.add.accumulate(weights, out=cumulative)
                    new_topic = int(cumulative.searchsorted(threshold))
                    topic_list[position] = new_topic
                    doc_counts[new_topic] += 1
                    word_row[new_topic] += 1
                    topic_totals[new_topic] += 1
                topics[:] = topic_list
            trace.append(
                _joint_log_likelihood(
                    document_topic_counts,
                    np.ascontiguousarray(word_topic_counts.T),
                    topic_totals,
                    self._alpha, self._beta,
                )
            )
        topic_word_counts = np.ascontiguousarray(word_topic_counts.T)

        topic_word = (topic_word_counts + self._beta) / (
            topic_totals[:, None] + self._beta * num_words
        )
        document_topic = (document_topic_counts + self._alpha) / (
            document_topic_counts.sum(axis=1, keepdims=True) + self._alpha * num_topics
        )
        return LDAModel(
            topic_word=topic_word,
            document_topic=document_topic,
            log_likelihood_trace=tuple(trace),
        )


def _joint_log_likelihood(
    document_topic_counts: np.ndarray,
    topic_word_counts: np.ndarray,
    topic_totals: np.ndarray,
    alpha: float,
    beta: float,
) -> float:
    """A cheap (up to constants) joint log-likelihood used as a trace."""
    document_mixtures = document_topic_counts + alpha
    document_mixtures /= document_mixtures.sum(axis=1, keepdims=True)
    word_mixtures = topic_word_counts + beta
    word_mixtures /= topic_totals[:, None] + beta * topic_word_counts.shape[1]
    return float(
        (document_topic_counts * np.log(document_mixtures + 1e-12)).sum()
        + (topic_word_counts * np.log(word_mixtures + 1e-12)).sum()
    )
