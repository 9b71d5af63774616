"""Whitespace tokenizer with a fixed vocabulary and reserved special ids.

The reference normalization is lowercase, punctuation deletion, then a
whitespace split. Anything satisfying the same id-sequence contract (no
special ids in output, one id per surface token) can replace it; the
downstream chunker and scorers only see integer ids.
"""

from __future__ import annotations

import hashlib
import string
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

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


def build_vocabulary(corpus: Iterable[str], max_size: int) -> Vocabulary:
    """Rank tokens by frequency (ties lexicographic) and keep the top ones.

    ``max_size`` counts the reserved ids, so at most ``max_size - FIRST_TEXT_ID``
    text tokens are retained. Deterministic regardless of document order.
    The texts are read once, one at a time, so ``corpus`` may be a generator.
    """
    if max_size < FIRST_TEXT_ID:
        raise ContractError(f"max_size must be >= {FIRST_TEXT_ID}, got {max_size}")
    counts: Counter[str] = Counter()
    texts = 0
    for texts, text in enumerate(corpus, 1):
        counts.update(normalize(text))
    if not texts:
        raise ContractError("corpus must be non-empty")
    ranked = sorted(counts, key=lambda tok: (-counts[tok], tok))
    kept = ranked[: max_size - FIRST_TEXT_ID]
    return Vocabulary(token_to_id={tok: i for i, tok in enumerate(kept, FIRST_TEXT_ID)})


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Map text to ids, with unknown tokens becoming UNK rather than dropped
    so positions stay aligned with the source."""
    return TokenSequence(
        ids=tuple(map(vocab.token_to_id.get, normalize(text), repeat(UNK_ID)))
    )
