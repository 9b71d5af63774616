import hashlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfuse import tokenizer
from chunkfuse.errors import ContractError
from chunkfuse.tokenizer import (
    CLS_ID,
    FIRST_TEXT_ID,
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


def vocabulary_of(texts, max_size):
    """The vocabulary of ``texts``, every one counted."""
    vocab, _ = build_vocabulary([(text, True) for text in texts], max_size)
    return vocab


def test_tiny_corpus_vocabulary():
    vocab = vocabulary_of(["a b a"], max_size=6)
    assert set(vocab.token_to_id) == {"a", "b"}
    assert vocab.token_to_id["a"] == 4  # higher frequency ranks first
    assert vocab.token_to_id["b"] == 5
    assert len(vocab) == 6


def test_frequency_tie_broken_lexicographically():
    vocab = vocabulary_of(["y x", "x y"], max_size=5)  # room for one token
    assert set(vocab.token_to_id) == {"x"}


def test_build_is_order_independent():
    docs = ["b c d", "a a b", "c"]
    assert vocabulary_of(docs, 20) == vocabulary_of(list(reversed(docs)), 20)


def test_build_preconditions():
    with pytest.raises(ContractError):
        build_vocabulary([], 10)
    with pytest.raises(ContractError, match="^corpus must hold a counted text$"):
        build_vocabulary(iter(()), 10)
    with pytest.raises(ContractError, match="^corpus must hold a counted text$"):
        build_vocabulary([("a b", False)], 10, keep_ids=True)
    with pytest.raises(ContractError):
        vocabulary_of(["a"], 3)


def test_build_reads_a_generator_once():
    docs = ["b c d", "a a b", "c", "", "D. b!"]
    for size in (20, 6):
        assert build_vocabulary(((d, True) for d in docs), size) == (vocabulary_of(docs, size), [])


def test_uncounted_texts_are_encoded_but_not_counted():
    vocab, ids = build_vocabulary(
        [("b a", True), ("c c c a", False), ("a", True)], 10, keep_ids=True
    )
    assert vocab.token_to_id == {"a": 4, "b": 5}  # c, seen only uncounted, is not kept
    assert [seq.tolist() for seq in ids] == [[5, 4], [UNK_ID, UNK_ID, UNK_ID, 4], [4]]
    assert all(seq.dtype == np.int32 for seq in ids)
    # without keep_ids an uncounted text is not read at all
    assert build_vocabulary([("b a", True), (None, False)], 10) == (vocab, [])


def test_tokenize_examples():
    vocab = vocabulary_of(["chest pain chest"], max_size=10)
    assert tokenize("", vocab).ids == ()
    seq = tokenize("Chest PAIN chest", vocab)
    chest, pain = vocab.token_to_id["chest"], vocab.token_to_id["pain"]
    assert seq.ids == (chest, pain, chest)
    assert tokenize("zzzunseen chest", vocab).ids == (UNK_ID, chest)


def test_sha256_is_the_digest_of_the_id_ordered_tokens():
    # a checkpoint is bound to its vocabulary by this digest
    vocab = vocabulary_of(["gamma alpha beta gamma beta gamma"], max_size=20)
    text = "[PAD]\n[UNK]\n[CLS]\n[SEP]\ngamma\nbeta\nalpha\n"
    assert vocab.sha256() == hashlib.sha256(text.encode("utf-8")).hexdigest()


def two_pass_reference(train, validation, max_size):
    """The plain two-pass definition the one pass must equal: a Counter over
    the train texts, ranked by (-count, token), then a lookup per token."""
    counts = Counter(token for text in train for token in normalize(text))
    ranked = sorted(counts, key=lambda token: (-counts[token], token))
    token_to_id = {t: i for i, t in enumerate(ranked[: max_size - FIRST_TEXT_ID], FIRST_TEXT_ID)}
    vocab = Vocabulary(token_to_id=token_to_id)
    ids = [[token_to_id.get(t, UNK_ID) for t in normalize(text)] for text in train + validation]
    return vocab, ids


# Few distinct words, so counts tie; case, punctuation and non-ASCII
# letters, so normalization merges some of them.
WORDS = st.sampled_from(["a", "A", "b", "b.", "B!", "é", "É", "ß", "日本", "x-y", "xy", "??"])
TEXTS = st.lists(WORDS, max_size=12).map(" ".join) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)


@settings(max_examples=300, deadline=None)
@given(
    train=st.lists(TEXTS, min_size=1, max_size=6),
    validation=st.lists(TEXTS, max_size=4),
    order=st.randoms(use_true_random=False),
    text_tokens=st.integers(1, 12),
    block=st.sampled_from([1, 3, 1 << 14]),
)
def test_one_pass_equals_two_pass_reference(train, validation, order, text_tokens, block):
    max_size = FIRST_TEXT_ID + text_tokens  # small sizes cut through tied counts
    want_vocab, want_ids = two_pass_reference(train, validation, max_size)
    # train and validation texts interleaved, as corpus order interleaves splits
    pairs = [(text, True) for text in train] + [(text, False) for text in validation]
    order.shuffle(pairs)
    with mock.patch.object(tokenizer, "_COUNT_BLOCK", block):
        vocab, ids = build_vocabulary(iter(pairs), max_size, keep_ids=True)
    assert vocab.sha256() == want_vocab.sha256()
    assert vocab == want_vocab
    got = {}
    for (text, _), seq in zip(pairs, ids):
        got.setdefault(text, seq.tolist())
        assert seq.tolist() == got[text] == list(tokenize(text, vocab).ids)
    assert [got[text] for text in train + validation] == want_ids


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
    vocab = vocabulary_of(["some shared words"], max_size=10)
    seq = tokenize(text, vocab)
    assert len(seq) == len(normalize(text))
    assert all(i not in (PAD_ID, CLS_ID, SEP_ID) for i in seq.ids)
    assert seq.ids == tokenize(text, vocab).ids  # pure function
