"""Whitespace tokenizer with a fixed vocabulary and reserved special ids.

The reference normalization is lowercase, punctuation deletion, then a
whitespace split. Anything satisfying the same id-sequence contract (no
special ids in output, one id per surface token) can replace it; the
downstream chunker and scorers only see integer ids.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from .errors import ContractError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3

# A special token's id is its position here.
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")
# Text tokens take the ids after the reserved ones; reserved ids carry no features.
FIRST_TEXT_ID = len(SPECIAL_TOKENS)

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

# Counted ids wait to be tallied by one np.bincount until they number this
# many, and at least as many as the distinct tokens seen, so a tally's cost
# per token stays flat however many distinct tokens there are.
_COUNT_BLOCK = 1 << 14


def normalize(text: str) -> list[str]:
    """Lowercase, delete punctuation characters, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass(frozen=True)
class TokenSequence:
    """Token ids for one note, before any framing or windowing."""

    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Vocabulary:
    """Bijection between surface tokens and dense ids; ids below
    ``FIRST_TEXT_ID`` are reserved for the special tokens.

    The bracketed special token strings can never collide with text
    tokens because normalization strips brackets.
    """

    token_to_id: dict[str, int]

    def __post_init__(self) -> None:
        ids = sorted(self.token_to_id.values())
        if ids != list(range(FIRST_TEXT_ID, FIRST_TEXT_ID + len(ids))):
            raise ContractError(f"text token ids must be unique and dense from {FIRST_TEXT_ID}")

    def __len__(self) -> int:
        return FIRST_TEXT_ID + len(self.token_to_id)

    def sha256(self) -> str:
        """Hex sha256 of the UTF-8 text of the tokens in id order, one per line."""
        ordered = sorted(self.token_to_id, key=self.token_to_id.get)
        text = "\n".join(SPECIAL_TOKENS + tuple(ordered)) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()


class _FirstSeen(dict):
    """Token -> provisional id, numbered in order of first appearance."""

    def __missing__(self, token: str) -> int:
        self[token] = provisional = len(self)
        return provisional


def _tally(counts: np.ndarray, pending: list[np.ndarray], size: int) -> np.ndarray:
    """``counts`` grown to ``size`` provisional ids, plus the ids in ``pending``."""
    counts = np.pad(counts, (0, size - len(counts)))
    if pending:
        counts += np.bincount(np.concatenate(pending), minlength=size)
    return counts


def build_vocabulary(
    corpus: Iterable[tuple[str, bool]], max_size: int, keep_ids: bool = False
) -> tuple[Vocabulary, list[np.ndarray]]:
    """One pass over ``(text, counted)`` pairs: the vocabulary of the
    counted texts and, if ``keep_ids``, every text's ids under it.

    Each text is normalized once, into int32 ids numbered as tokens first
    appear, and the counted texts' ids are tallied with ``np.bincount``.
    Tokens are ranked by that count (ties lexicographic) and the top ones
    kept; a token no counted text holds is never kept. ``max_size`` counts
    the reserved ids, so at most ``max_size - FIRST_TEXT_ID`` text tokens
    are retained. The vocabulary does not depend on text order. The kept
    ids are then remapped in place, a token outside the vocabulary to UNK,
    so a text's ids are ``tokenize``'s under the vocabulary. Without
    ``keep_ids`` the list is empty and an uncounted text is not read. The
    pairs are read one at a time, so ``corpus`` may be a generator, and no
    text is held past its own step.
    """
    if max_size < FIRST_TEXT_ID:
        raise ContractError(f"max_size must be >= {FIRST_TEXT_ID}, got {max_size}")
    first_seen = _FirstSeen()
    counts = np.zeros(0, np.int64)
    pending: list[np.ndarray] = []  # counted ids not yet tallied
    pending_tokens = counted_texts = 0
    sequences: list[np.ndarray] = []
    for text, counted in corpus:
        if not (counted or keep_ids):
            continue
        tokens = normalize(text)
        ids = np.fromiter(map(first_seen.__getitem__, tokens), np.int32, len(tokens))
        if keep_ids:
            sequences.append(ids)
        if counted:
            counted_texts += 1
            pending.append(ids)
            pending_tokens += len(ids)
            if pending_tokens >= max(_COUNT_BLOCK, len(first_seen)):
                counts = _tally(counts, pending, len(first_seen))
                pending, pending_tokens = [], 0
    if not counted_texts:
        raise ContractError("corpus must hold a counted text")
    counts = _tally(counts, pending, len(first_seen)).tolist()
    tokens = list(first_seen)  # in provisional id order
    ranked = sorted(
        (i for i, count in enumerate(counts) if count), key=lambda i: (-counts[i], tokens[i])
    )
    top = ranked[: max_size - FIRST_TEXT_ID]
    remap = np.full(len(tokens), UNK_ID, np.int32)
    remap[top] = np.arange(FIRST_TEXT_ID, FIRST_TEXT_ID + len(top), dtype=np.int32)
    for ids in sequences:
        remap.take(ids, out=ids)
    vocab = Vocabulary(token_to_id={tokens[i]: new for new, i in enumerate(top, FIRST_TEXT_ID)})
    return vocab, sequences


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Map text to ids, with unknown tokens becoming UNK rather than dropped
    so positions stay aligned with the source."""
    return TokenSequence(
        ids=tuple(map(vocab.token_to_id.get, normalize(text), repeat(UNK_ID)))
    )
