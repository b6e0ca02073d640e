"""Synthetic text generation (BDGS "Text Generator" equivalent).

BDGS generates semantically plausible text by sampling from topic models
trained on Wikipedia.  Offline, we generate text from a synthetic
vocabulary with a Zipfian unigram distribution and optional per-topic
skews, which preserves the properties the workloads depend on: a heavy
head of frequent words (WordCount combiners work), rare-word tails
(Grep selectivity is controllable), and topic-dependent word usage
(Naive Bayes has signal to learn).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import DataGenerationError

__all__ = ["Vocabulary", "TextGenerator", "LabeledDocument"]

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class LabeledDocument:
    """A document with a class label (for Naive Bayes training/testing)."""

    label: str
    words: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.words)


@functools.lru_cache(maxsize=8)
def _vocabulary_words(size: int, seed: int) -> tuple[str, ...]:
    """The words of ``Vocabulary(size, seed)``, built once per process.

    The words depend only on ``(size, seed)``, and every workload of a
    collection asks for the same vocabulary.  The scalar draws are
    interleaved on purpose: bulk draws would produce different words.
    """
    rng = np.random.default_rng(seed)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        syllables = int(rng.integers(1, 4))
        word = "".join(
            _CONSONANTS[int(rng.integers(0, len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(0, len(_VOWELS)))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return tuple(words)


class Vocabulary:
    """A deterministic synthetic vocabulary of pronounceable words."""

    def __init__(self, size: int, seed: int = 7) -> None:
        if size <= 0:
            raise DataGenerationError("vocabulary size must be positive")
        self.words = _vocabulary_words(size, seed)

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index: int) -> str:
        return self.words[index]


class TextGenerator:
    """Generates Zipf-distributed text over a synthetic vocabulary.

    Args:
        vocabulary_size: Number of distinct words.
        zipf_exponent: Unigram distribution exponent (~1.1 matches natural
            language reasonably).
        seed: Seed for both vocabulary construction and sampling.
    """

    def __init__(
        self,
        vocabulary_size: int = 5000,
        zipf_exponent: float = 1.1,
        seed: int = 7,
    ) -> None:
        if zipf_exponent <= 0:
            raise DataGenerationError("zipf_exponent must be positive")
        self.vocabulary = Vocabulary(vocabulary_size, seed=seed)
        self._rng = np.random.default_rng(seed + 1)
        ranks = np.arange(1, vocabulary_size + 1, dtype=float)
        weights = ranks ** (-zipf_exponent)
        self._base_probs = weights / weights.sum()

    def words(self, count: int) -> list[str]:
        """Sample ``count`` words from the unigram distribution."""
        if count < 0:
            raise DataGenerationError("word count must be non-negative")
        indices = self._rng.choice(len(self.vocabulary), size=count, p=self._base_probs)
        words = self.vocabulary.words
        return [words[i] for i in indices.tolist()]

    def lines(self, count: int, words_per_line: int = 12) -> list[str]:
        """Sample ``count`` text lines (for Grep / WordCount inputs)."""
        if words_per_line <= 0:
            raise DataGenerationError("words_per_line must be positive")
        flat = self.words(count * words_per_line)
        return [
            " ".join(flat[i * words_per_line : (i + 1) * words_per_line])
            for i in range(count)
        ]

    def documents(self, count: int, words_per_doc: int = 100) -> list[tuple[str, ...]]:
        """Sample ``count`` unlabeled documents."""
        if words_per_doc <= 0:
            raise DataGenerationError("words_per_doc must be positive")
        flat = self.words(count * words_per_doc)
        return [
            tuple(flat[i * words_per_doc : (i + 1) * words_per_doc])
            for i in range(count)
        ]

    def labeled_documents(
        self,
        count: int,
        classes: tuple[str, ...] = ("sports", "finance", "science", "travel"),
        words_per_doc: int = 80,
        topic_strength: float = 3.0,
    ) -> list[LabeledDocument]:
        """Sample class-labeled documents with topic-skewed vocabularies.

        Each class boosts a disjoint slice of the vocabulary by
        ``topic_strength``, giving Naive Bayes real signal to learn while
        keeping a shared Zipfian background.

        Raises:
            DataGenerationError: On empty ``classes`` or bad shape params.
        """
        if not classes:
            raise DataGenerationError("need at least one class")
        if topic_strength < 1.0:
            raise DataGenerationError("topic_strength must be >= 1")
        vocab_size = len(self.vocabulary)
        slice_size = max(1, vocab_size // (len(classes) * 4))
        class_probs: dict[str, np.ndarray] = {}
        for class_index, label in enumerate(classes):
            boosted = self._base_probs.copy()
            start = class_index * slice_size
            end = min(vocab_size, start + slice_size)
            boosted[start:end] *= topic_strength
            class_probs[label] = boosted / boosted.sum()

        words = self.vocabulary.words
        documents: list[LabeledDocument] = []
        labels = [classes[int(i)] for i in self._rng.integers(0, len(classes), size=count)]
        for label in labels:
            indices = self._rng.choice(vocab_size, size=words_per_doc, p=class_probs[label])
            documents.append(
                LabeledDocument(
                    label=label,
                    words=tuple([words[i] for i in indices.tolist()]),
                )
            )
        return documents
