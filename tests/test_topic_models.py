"""Unit tests for LDA, the Author-Topic Model and EM paper inference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import SyntheticCorpusGenerator
from repro.exceptions import ConfigurationError
from repro.topics.atm import AuthorTopicModel
from repro.topics.corpus import Corpus, Document
from repro.topics.em import infer_document_vectors, infer_topic_mixture
from repro.topics.lda import LatentDirichletAllocation


@pytest.fixture(scope="module")
def synthetic_corpus():
    """A small synthetic corpus with known ground-truth topics."""
    generator = SyntheticCorpusGenerator(
        num_topics=4, words_per_topic=12, background_words=10, seed=11
    )
    return generator.generate(
        num_authors=12,
        publications_per_author=(2, 4),
        num_submissions=8,
        tokens_per_document=(40, 70),
    )


class TestLDA:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            LatentDirichletAllocation(num_topics=0)
        with pytest.raises(ConfigurationError):
            LatentDirichletAllocation(num_topics=3, alpha=0.0)
        with pytest.raises(ConfigurationError):
            LatentDirichletAllocation(num_topics=3, iterations=0)

    def test_fit_produces_valid_distributions(self, synthetic_corpus):
        model = LatentDirichletAllocation(num_topics=4, iterations=30, seed=0).fit(
            synthetic_corpus.publications
        )
        assert model.num_topics == 4
        assert model.topic_word.shape[1] == synthetic_corpus.publications.num_words
        assert np.allclose(model.topic_word.sum(axis=1), 1.0)
        assert np.allclose(model.document_topic.sum(axis=1), 1.0)
        assert np.all(model.topic_word >= 0)
        assert len(model.log_likelihood_trace) == 30

    def test_log_likelihood_generally_improves(self, synthetic_corpus):
        model = LatentDirichletAllocation(num_topics=4, iterations=30, seed=1).fit(
            synthetic_corpus.publications
        )
        trace = model.log_likelihood_trace
        assert trace[-1] > trace[0]

    def test_topics_separate_signature_words(self, synthetic_corpus):
        """Each learned topic should be dominated by one ground-truth block."""
        corpus = synthetic_corpus.publications
        model = LatentDirichletAllocation(num_topics=4, iterations=60, seed=2).fit(corpus)
        blocks = set()
        for topic in range(4):
            top_words = model.top_words(topic, corpus.vocabulary, count=5)
            prefixes = [word[:7] for word in top_words if word.startswith("topic")]
            if prefixes:
                blocks.add(max(set(prefixes), key=prefixes.count))
        # The sampler should discover at least three of the four blocks.
        assert len(blocks) >= 3

    def test_deterministic_given_seed(self, synthetic_corpus):
        first = LatentDirichletAllocation(num_topics=3, iterations=10, seed=5).fit(
            synthetic_corpus.publications
        )
        second = LatentDirichletAllocation(num_topics=3, iterations=10, seed=5).fit(
            synthetic_corpus.publications
        )
        assert np.allclose(first.topic_word, second.topic_word)

    @pytest.mark.parametrize("seed", [0, 13])
    def test_sampler_identical_to_textbook_reference(self, synthetic_corpus, seed):
        """The batched sampler is bit-identical to the per-token formulation.

        The reference below is the pre-optimisation textbook collapsed
        Gibbs loop (per-token gathers, fresh temporaries, one rng.random()
        call per token).  The production sampler reorganises the arithmetic
        — transposed counts, preallocated buffers, batched initialisation
        and per-document uniform draws — but must consume the random
        stream the same way and round identically at every step.
        """
        corpus = synthetic_corpus.publications
        model = LatentDirichletAllocation(num_topics=4, iterations=8, seed=seed).fit(
            corpus
        )
        reference_topic_word, reference_document_topic = _reference_lda(
            corpus, num_topics=4, alpha=0.1, beta=0.01, iterations=8, seed=seed
        )
        assert np.array_equal(model.topic_word, reference_topic_word)
        assert np.array_equal(model.document_topic, reference_document_topic)


def _reference_lda(corpus, num_topics, alpha, beta, iterations, seed):
    """Textbook per-token collapsed Gibbs sampler (the pinned reference)."""
    rng = np.random.default_rng(seed)
    num_words = corpus.num_words
    documents = [
        np.asarray(corpus.encoded_document(d), dtype=np.int64)
        for d in range(corpus.num_documents)
    ]
    document_topic_counts = np.zeros((corpus.num_documents, num_topics))
    topic_word_counts = np.zeros((num_topics, num_words))
    topic_totals = np.zeros(num_topics)
    assignments = []
    for document_index, words in enumerate(documents):
        topics = rng.integers(0, num_topics, size=words.size)
        assignments.append(topics)
        for word, topic in zip(words, topics):
            document_topic_counts[document_index, topic] += 1
            topic_word_counts[topic, word] += 1
            topic_totals[topic] += 1
    for _ in range(iterations):
        for document_index, words in enumerate(documents):
            topics = assignments[document_index]
            for position in range(words.size):
                word = words[position]
                old_topic = topics[position]
                document_topic_counts[document_index, old_topic] -= 1
                topic_word_counts[old_topic, word] -= 1
                topic_totals[old_topic] -= 1
                weights = (
                    (document_topic_counts[document_index] + alpha)
                    * (topic_word_counts[:, word] + beta)
                    / (topic_totals + beta * num_words)
                )
                threshold = rng.random() * weights.sum()
                new_topic = int(np.searchsorted(np.cumsum(weights), threshold))
                topics[position] = new_topic
                document_topic_counts[document_index, new_topic] += 1
                topic_word_counts[new_topic, word] += 1
                topic_totals[new_topic] += 1
    topic_word = (topic_word_counts + beta) / (
        topic_totals[:, None] + beta * num_words
    )
    document_topic = (document_topic_counts + alpha) / (
        document_topic_counts.sum(axis=1, keepdims=True) + alpha * num_topics
    )
    return topic_word, document_topic


class TestAuthorTopicModel:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            AuthorTopicModel(num_topics=0)
        with pytest.raises(ConfigurationError):
            AuthorTopicModel(num_topics=3, beta=0.0)

    def test_requires_authors(self):
        corpus = Corpus([Document(id="d", tokens=("alpha", "beta"))])
        with pytest.raises(ConfigurationError):
            AuthorTopicModel(num_topics=2, iterations=5).fit(corpus)

    def test_fit_produces_valid_distributions(self, synthetic_corpus):
        model = AuthorTopicModel(num_topics=4, iterations=30, seed=0).fit(
            synthetic_corpus.publications
        )
        assert model.num_topics == 4
        assert model.author_topic.shape == (
            len(synthetic_corpus.publications.authors), 4
        )
        assert np.allclose(model.author_topic.sum(axis=1), 1.0, atol=1e-6)
        assert np.allclose(model.topic_word.sum(axis=1), 1.0, atol=1e-6)
        assert model.authors == synthetic_corpus.publications.authors

    def test_author_vector_lookup(self, synthetic_corpus):
        model = AuthorTopicModel(num_topics=4, iterations=20, seed=0).fit(
            synthetic_corpus.publications
        )
        author = synthetic_corpus.publications.authors[0]
        vector = model.author_vector(author)
        assert vector.shape == (4,)
        assert vector.sum() == pytest.approx(1.0, abs=1e-6)

    def test_focused_authors_get_focused_vectors(self, synthetic_corpus):
        """Authors generated with 1-3 focus topics should not look uniform."""
        model = AuthorTopicModel(num_topics=4, iterations=60, seed=3).fit(
            synthetic_corpus.publications
        )
        peak_share = model.author_topic.max(axis=1).mean()
        assert peak_share > 1.5 / 4  # clearly above the uniform 0.25

    def test_top_words(self, synthetic_corpus):
        corpus = synthetic_corpus.publications
        model = AuthorTopicModel(num_topics=4, iterations=30, seed=0).fit(corpus)
        words = model.top_words(0, corpus.vocabulary, count=3)
        assert len(words) == 3
        assert all(isinstance(word, str) for word in words)

    @pytest.mark.parametrize("seed", [0, 13])
    def test_sampler_identical_to_textbook_reference(self, synthetic_corpus, seed):
        """The maintained-block sampler is bit-identical to the per-token loop.

        The reference below is the pre-optimisation textbook ATM sampler
        (per-token gathers of the authors' rows and the word's column,
        fresh temporaries, one rng.random() call per token) over a corpus
        whose documents have one to three authors.
        """
        corpus = synthetic_corpus.publications
        model = AuthorTopicModel(num_topics=4, iterations=8, seed=seed).fit(corpus)
        author_topic, topic_word, trace = _reference_atm(
            corpus, num_topics=4, alpha=0.1, beta=0.01, iterations=8, seed=seed
        )
        assert np.array_equal(model.author_topic, author_topic)
        assert np.array_equal(model.topic_word, topic_word)
        assert model.log_likelihood_trace == trace

    def test_sampler_identical_to_reference_with_an_empty_document(
        self, synthetic_corpus
    ):
        """A document with no in-vocabulary token draws no random numbers."""
        documents = list(synthetic_corpus.publications.documents[:6])
        documents.insert(2, Document(id="empty", tokens=(), authors=("author-x",)))
        corpus = Corpus(documents)
        model = AuthorTopicModel(num_topics=3, iterations=4, seed=2).fit(corpus)
        author_topic, topic_word, trace = _reference_atm(
            corpus, num_topics=3, alpha=0.1, beta=0.01, iterations=4, seed=2
        )
        assert np.array_equal(model.author_topic, author_topic)
        assert np.array_equal(model.topic_word, topic_word)
        assert model.log_likelihood_trace == trace

    def test_repeated_author_is_weighted_once(self, synthetic_corpus):
        """Regression: a document listing an author twice gave it double weight.

        ``Corpus.author_indices`` returned the repeated index twice, so the
        uniform author choice drew that author twice as often.  Documents
        now drop repeats, and the fit equals the deduplicated twin's.
        """
        documents = list(synthetic_corpus.publications.documents[:10])
        first = documents[0]
        repeated = Document(
            id=first.id, tokens=first.tokens,
            authors=first.authors + first.authors[:1] + ("author-x", "author-x"),
        )
        twin = Document(id=first.id, tokens=first.tokens,
                        authors=first.authors + ("author-x",))
        assert repeated.authors == twin.authors
        corpus = Corpus([repeated] + documents[1:])
        assert len(set(corpus.author_indices(0))) == len(corpus.author_indices(0))
        model = AuthorTopicModel(num_topics=3, iterations=5, seed=4).fit(corpus)
        reference = AuthorTopicModel(num_topics=3, iterations=5, seed=4).fit(
            Corpus([twin] + documents[1:])
        )
        assert model.authors == reference.authors
        assert np.array_equal(model.author_topic, reference.author_topic)
        assert np.array_equal(model.topic_word, reference.topic_word)


def _reference_atm(corpus, num_topics, alpha, beta, iterations, seed):
    """Textbook per-token Author-Topic Gibbs sampler (the pinned reference)."""
    rng = np.random.default_rng(seed)
    num_words = corpus.num_words
    num_authors = len(corpus.authors)
    documents = [
        np.asarray(corpus.encoded_document(d), dtype=np.int64)
        for d in range(corpus.num_documents)
    ]
    document_authors = [
        np.asarray(corpus.author_indices(d), dtype=np.int64)
        for d in range(corpus.num_documents)
    ]
    author_topic_counts = np.zeros((num_authors, num_topics))
    topic_word_counts = np.zeros((num_topics, num_words))
    topic_totals = np.zeros(num_topics)
    author_totals = np.zeros(num_authors)
    topic_assignments = []
    author_assignments = []
    for document_index, words in enumerate(documents):
        authors = document_authors[document_index]
        topics = rng.integers(0, num_topics, size=words.size)
        chosen_authors = authors[rng.integers(0, authors.size, size=words.size)]
        topic_assignments.append(topics)
        author_assignments.append(chosen_authors)
        for word, topic, author in zip(words, topics, chosen_authors):
            author_topic_counts[author, topic] += 1
            topic_word_counts[topic, word] += 1
            topic_totals[topic] += 1
            author_totals[author] += 1
    trace = []
    for _ in range(iterations):
        for document_index, words in enumerate(documents):
            authors = document_authors[document_index]
            topics = topic_assignments[document_index]
            token_authors = author_assignments[document_index]
            for position in range(words.size):
                word = words[position]
                old_topic = topics[position]
                old_author = token_authors[position]
                author_topic_counts[old_author, old_topic] -= 1
                topic_word_counts[old_topic, word] -= 1
                topic_totals[old_topic] -= 1
                author_totals[old_author] -= 1
                author_block = (author_topic_counts[authors] + alpha) / (
                    author_totals[authors, None] + alpha * num_topics
                )
                word_block = (topic_word_counts[:, word] + beta) / (
                    topic_totals + beta * num_words
                )
                weights = (author_block * word_block[None, :]).reshape(-1)
                threshold = rng.random() * weights.sum()
                flat_choice = int(np.searchsorted(np.cumsum(weights), threshold))
                new_author = authors[flat_choice // num_topics]
                new_topic = flat_choice % num_topics
                topics[position] = new_topic
                token_authors[position] = new_author
                author_topic_counts[new_author, new_topic] += 1
                topic_word_counts[new_topic, word] += 1
                topic_totals[new_topic] += 1
                author_totals[new_author] += 1
        trace.append(float(
            (author_topic_counts * np.log(
                (author_topic_counts + alpha)
                / (author_totals[:, None] + alpha * num_topics) + 1e-12
            )).sum()
            + (topic_word_counts * np.log(
                (topic_word_counts + beta)
                / (topic_totals[:, None] + beta * num_words) + 1e-12
            )).sum()
        ))
    author_topic = (author_topic_counts + alpha) / (
        author_totals[:, None] + alpha * num_topics
    )
    topic_word = (topic_word_counts + beta) / (
        topic_totals[:, None] + beta * num_words
    )
    return author_topic, topic_word, tuple(trace)


class TestEMInference:
    def test_recovers_a_pure_topic_document(self):
        topic_word = np.array([
            [0.9, 0.05, 0.05],
            [0.05, 0.9, 0.05],
        ])
        word_ids = [1, 1, 1, 1, 1]
        result = infer_topic_mixture(word_ids, topic_word)
        assert result.converged
        assert result.mixture[1] > 0.9

    def test_empty_document_gives_uniform_mixture(self):
        topic_word = np.ones((3, 4)) / 4
        result = infer_topic_mixture([], topic_word)
        assert result.mixture == pytest.approx(np.full(3, 1 / 3))

    def test_mixture_is_normalised(self):
        rng = np.random.default_rng(0)
        topic_word = rng.dirichlet(np.ones(6), size=4)
        result = infer_topic_mixture([0, 3, 5, 2, 2], topic_word)
        assert result.mixture.sum() == pytest.approx(1.0)
        assert np.all(result.mixture >= 0)

    def test_log_likelihood_is_monotone_across_iterations(self):
        rng = np.random.default_rng(1)
        topic_word = rng.dirichlet(np.ones(8), size=3)
        words = rng.integers(0, 8, size=30).tolist()
        short = infer_topic_mixture(words, topic_word, max_iterations=1)
        long = infer_topic_mixture(words, topic_word, max_iterations=50)
        assert long.log_likelihood >= short.log_likelihood - 1e-9

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            infer_topic_mixture([0], np.ones(3))
        with pytest.raises(ConfigurationError):
            infer_topic_mixture([5], np.ones((2, 3)) / 3)

    def test_batch_inference(self, synthetic_corpus):
        vocabulary = synthetic_corpus.publications.vocabulary
        encoded = [
            vocabulary.encode(document.tokens)
            for document in synthetic_corpus.submissions[:4]
        ]
        vectors = infer_document_vectors(encoded, synthetic_corpus.topic_word)
        assert vectors.shape == (4, synthetic_corpus.topic_word.shape[0])
        assert np.allclose(vectors.sum(axis=1), 1.0)

    def test_em_recovers_submission_mixtures_with_true_topics(self, synthetic_corpus):
        """With the ground-truth topics, EM should correlate with the truth."""
        vocabulary = synthetic_corpus.publications.vocabulary
        # Map the generator's vocabulary (by construction word index order)
        # onto the corpus vocabulary.
        words = SyntheticCorpusGenerator(
            num_topics=4, words_per_topic=12, background_words=10, seed=11
        ).vocabulary_words
        correlations = []
        for index, document in enumerate(synthetic_corpus.submissions):
            encoded_truth_ids = [
                words.index(token) for token in document.tokens
            ]
            inferred = infer_topic_mixture(
                encoded_truth_ids, synthetic_corpus.topic_word
            ).mixture
            truth = synthetic_corpus.true_submission_mixtures[index]
            dominant_truth = int(np.argmax(truth))
            correlations.append(int(np.argmax(inferred)) == dominant_truth)
            _ = vocabulary  # corpus vocabulary exercised elsewhere
        assert sum(correlations) >= len(correlations) * 0.7
