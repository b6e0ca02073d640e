"""Tests for the synthetic text generator."""

from collections import Counter

import pytest

from repro.datagen.text import TextGenerator, Vocabulary, _vocabulary_words
from repro.errors import DataGenerationError


def test_vocabulary_is_deterministic_and_unique():
    a = Vocabulary(200, seed=1)
    b = Vocabulary(200, seed=1)
    assert a.words == b.words
    assert len(set(a.words)) == 200


def test_vocabulary_differs_across_seeds():
    assert Vocabulary(100, seed=1).words != Vocabulary(100, seed=2).words


def test_vocabulary_size_validation():
    with pytest.raises(DataGenerationError):
        Vocabulary(0)


def test_words_follow_zipf_head():
    generator = TextGenerator(vocabulary_size=500, seed=3)
    words = generator.words(20_000)
    counts = Counter(words)
    top = counts.most_common(10)
    # The ten most frequent words carry a disproportionate share.
    assert sum(c for _w, c in top) > 0.15 * len(words)


def test_lines_have_requested_shape():
    generator = TextGenerator(seed=4)
    lines = generator.lines(50, words_per_line=7)
    assert len(lines) == 50
    assert all(len(line.split()) == 7 for line in lines)


def test_documents_shape():
    generator = TextGenerator(seed=5)
    docs = generator.documents(10, words_per_doc=20)
    assert len(docs) == 10
    assert all(len(doc) == 20 for doc in docs)


def test_labeled_documents_have_topic_signal():
    generator = TextGenerator(vocabulary_size=400, seed=6)
    docs = generator.labeled_documents(
        400, classes=("a", "b"), words_per_doc=60, topic_strength=6.0
    )
    assert {doc.label for doc in docs} == {"a", "b"}
    # Word distributions must differ between classes: compare the top
    # boosted-slice usage.  Class "a" boosts vocabulary slice [0, 50),
    # class "b" boosts [50, 100).
    vocab = generator.vocabulary
    slice_a = set(vocab.words[:50])
    a_docs = [d for d in docs if d.label == "a"]
    b_docs = [d for d in docs if d.label == "b"]
    a_usage = sum(w in slice_a for d in a_docs for w in d.words) / sum(
        len(d.words) for d in a_docs
    )
    b_usage = sum(w in slice_a for d in b_docs for w in d.words) / sum(
        len(d.words) for d in b_docs
    )
    assert a_usage > b_usage * 1.5


def test_labeled_documents_validation():
    generator = TextGenerator(seed=7)
    with pytest.raises(DataGenerationError):
        generator.labeled_documents(5, classes=())
    with pytest.raises(DataGenerationError):
        generator.labeled_documents(5, topic_strength=0.5)


def test_parameter_validation():
    with pytest.raises(DataGenerationError):
        TextGenerator(zipf_exponent=0.0)
    generator = TextGenerator(seed=8)
    with pytest.raises(DataGenerationError):
        generator.words(-1)
    with pytest.raises(DataGenerationError):
        generator.lines(5, words_per_line=0)


def test_vocabulary_words_are_built_once_per_key():
    assert Vocabulary(300, seed=11).words is Vocabulary(300, seed=11).words
    assert Vocabulary(300, seed=11).words is not Vocabulary(300, seed=12).words


def test_vocabulary_memo_is_bounded():
    maxsize = _vocabulary_words.cache_info().maxsize
    assert maxsize is not None
    for seed in range(maxsize + 3):
        Vocabulary(20, seed=1000 + seed)
    assert _vocabulary_words.cache_info().currsize <= maxsize


def test_generators_sharing_a_vocabulary_keep_their_own_streams():
    first, second = TextGenerator(seed=42), TextGenerator(seed=42)
    assert first.vocabulary.words is second.vocabulary.words
    assert first.words(100) == second.words(100)
    # Drawing from one generator must not advance the other.
    first.words(500)
    reference = TextGenerator(seed=42)
    reference.words(100)
    assert second.words(100) == reference.words(100)
