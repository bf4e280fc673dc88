"""Corpus containers for the topic-modelling substrate.

A :class:`Document` is a tokenised publication (or submission abstract)
with optional author identifiers; a :class:`Corpus` bundles documents with
a shared :class:`~repro.topics.text.Vocabulary` and exposes the encoded
(id-based) views the Gibbs samplers operate on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.topics.text import Vocabulary, tokenize

__all__ = ["Document", "Corpus"]


@dataclass(frozen=True)
class Document:
    """A single tokenised document.

    Attributes
    ----------
    id:
        Document identifier (e.g. a DBLP key or submission number).
    tokens:
        Content tokens, already tokenised and stop-word filtered.
    authors:
        Author identifiers, each listed once (repeats are dropped, keeping
        first-appearance order).  Required by the Author-Topic Model; may be
        empty for plain LDA or for submissions whose authors are hidden.
    """

    id: str
    tokens: tuple[str, ...]
    authors: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigurationError("a document needs a non-empty id")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        # A repeated author would be drawn twice as often by the ATM's
        # uniform author choice.
        object.__setattr__(self, "authors", tuple(dict.fromkeys(self.authors)))

    @classmethod
    def from_text(
        cls, document_id: str, text: str, authors: Iterable[str] = ()
    ) -> "Document":
        """Tokenise raw text into a document."""
        return cls(id=document_id, tokens=tuple(tokenize(text)), authors=tuple(authors))

    @property
    def length(self) -> int:
        """Number of tokens."""
        return len(self.tokens)


class Corpus:
    """An ordered collection of documents with a shared vocabulary."""

    def __init__(
        self,
        documents: Sequence[Document],
        vocabulary: Vocabulary | None = None,
        min_document_frequency: int = 1,
        max_document_ratio: float = 1.0,
    ) -> None:
        if not documents:
            raise ConfigurationError("a corpus needs at least one document")
        self._documents: tuple[Document, ...] = tuple(documents)
        if vocabulary is None:
            vocabulary = Vocabulary.from_documents(
                (list(document.tokens) for document in self._documents),
                min_document_frequency=min_document_frequency,
                max_document_ratio=max_document_ratio,
            )
        self._vocabulary = vocabulary
        self._encoded: list[list[int]] = [
            vocabulary.encode(document.tokens) for document in self._documents
        ]
        authors: list[str] = []
        seen: set[str] = set()
        for document in self._documents:
            for author in document.authors:
                if author not in seen:
                    seen.add(author)
                    authors.append(author)
        self._authors: tuple[str, ...] = tuple(authors)
        self._author_index: dict[str, int] = {
            author: position for position, author in enumerate(self._authors)
        }

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def documents(self) -> tuple[Document, ...]:
        """The documents, in corpus order."""
        return self._documents

    @property
    def vocabulary(self) -> Vocabulary:
        """The shared vocabulary."""
        return self._vocabulary

    @property
    def authors(self) -> tuple[str, ...]:
        """All distinct author identifiers, in first-appearance order."""
        return self._authors

    @property
    def num_documents(self) -> int:
        """Number of documents."""
        return len(self._documents)

    @property
    def num_words(self) -> int:
        """Vocabulary size."""
        return len(self._vocabulary)

    @property
    def num_tokens(self) -> int:
        """Total number of (in-vocabulary) token occurrences."""
        return sum(len(tokens) for tokens in self._encoded)

    def author_index(self, author: str) -> int:
        """Position of an author in :attr:`authors`."""
        try:
            return self._author_index[author]
        except KeyError:
            raise KeyError(f"unknown author {author!r}") from None

    def encoded_document(self, position: int) -> list[int]:
        """Word ids of the document at ``position`` (out-of-vocabulary dropped)."""
        return list(self._encoded[position])

    def encoded_documents(self) -> Iterator[list[int]]:
        """Iterate over the encoded documents in corpus order."""
        for encoded in self._encoded:
            yield list(encoded)

    def author_indices(self, position: int) -> list[int]:
        """Author positions of the document at ``position``."""
        return [
            self._author_index[author]
            for author in self._documents[position].authors
        ]

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __repr__(self) -> str:
        return (
            f"Corpus({self.num_documents} documents, {self.num_words} words, "
            f"{len(self._authors)} authors)"
        )
