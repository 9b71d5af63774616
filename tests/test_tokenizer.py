import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfuse.errors import ContractError
from chunkfuse.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    normalize,
    tokenize,
)


def test_special_id_layout():
    assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)


def test_normalize_folds_case_and_strips_punctuation():
    assert normalize("Chest, PAIN!") == ["chest", "pain"]
    assert normalize("don't stop") == ["dont", "stop"]
    assert normalize("a-b c") == ["ab", "c"]
    assert normalize("   \t\n ") == []


def test_tiny_corpus_vocabulary():
    vocab = build_vocabulary(["a b a"], max_size=6)
    assert set(vocab.token_to_id) == {"a", "b"}
    assert vocab.token_to_id["a"] == 4  # higher frequency ranks first
    assert vocab.token_to_id["b"] == 5
    assert len(vocab) == 6


def test_frequency_tie_broken_lexicographically():
    vocab = build_vocabulary(["y x", "x y"], max_size=5)  # room for one token
    assert set(vocab.token_to_id) == {"x"}


def test_build_is_order_independent():
    docs = ["b c d", "a a b", "c"]
    assert build_vocabulary(docs, 20) == build_vocabulary(list(reversed(docs)), 20)


def test_build_preconditions():
    with pytest.raises(ContractError):
        build_vocabulary([], 10)
    with pytest.raises(ContractError, match="^corpus must be non-empty$"):
        build_vocabulary(iter(()), 10)
    with pytest.raises(ContractError):
        build_vocabulary(["a"], 3)


def test_build_reads_a_generator_once():
    docs = ["b c d", "a a b", "c", "", "D. b!"]
    assert build_vocabulary((d for d in docs), 20) == build_vocabulary(docs, 20)
    assert build_vocabulary((d for d in docs), 6) == build_vocabulary(docs, 6)


def test_tokenize_examples():
    vocab = build_vocabulary(["chest pain chest"], max_size=10)
    assert tokenize("", vocab).ids == ()
    seq = tokenize("Chest PAIN chest", vocab)
    chest, pain = vocab.token_to_id["chest"], vocab.token_to_id["pain"]
    assert seq.ids == (chest, pain, chest)
    assert tokenize("zzzunseen chest", vocab).ids == (UNK_ID, chest)


def test_sha256_is_the_digest_of_the_id_ordered_tokens():
    # a checkpoint is bound to its vocabulary by this digest
    vocab = build_vocabulary(["gamma alpha beta gamma beta gamma"], max_size=20)
    text = "[PAD]\n[UNK]\n[CLS]\n[SEP]\ngamma\nbeta\nalpha\n"
    assert vocab.sha256() == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_vocabulary_rejects_sparse_ids():
    with pytest.raises(ContractError):
        Vocabulary(token_to_id={"a": 5})
    with pytest.raises(ContractError):
        Vocabulary(token_to_id={"a": 2})


texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=200
)


@settings(max_examples=200)
@given(texts)
def test_tokenize_length_matches_normalization(text):
    vocab = build_vocabulary(["some shared words"], max_size=10)
    seq = tokenize(text, vocab)
    assert len(seq) == len(normalize(text))
    assert all(i not in (PAD_ID, CLS_ID, SEP_ID) for i in seq.ids)
    assert seq.ids == tokenize(text, vocab).ids  # pure function
