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
from pathlib import Path

from .errors import ContractError, DataError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3

# Header order doubles as the id assignment in serialized files.
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")

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
    """Bijection between surface tokens and dense ids; ids 0..3 are reserved.

    Text tokens start at id 4. The bracketed special token strings can
    never collide with text tokens because normalization strips brackets.
    """

    token_to_id: dict[str, int]

    def __post_init__(self) -> None:
        ids = list(self.token_to_id.values())
        if len(set(ids)) != len(ids):
            raise ContractError("vocabulary ids must be unique")
        if ids and (min(ids) < 4 or sorted(ids) != list(range(4, 4 + len(ids)))):
            raise ContractError("text token ids must be dense starting at 4")

    def __len__(self) -> int:
        return 4 + len(self.token_to_id)

    def _text(self) -> str:
        ordered = sorted(self.token_to_id, key=self.token_to_id.get)
        return "\n".join(SPECIAL_TOKENS + tuple(ordered)) + "\n"

    def save(self, path: str | Path) -> None:
        """One token per line; the line number is the id."""
        Path(path).write_text(self._text())

    def sha256(self) -> str:
        """Hex sha256 of the tokens in id order: the UTF-8 text ``save`` writes."""
        return hashlib.sha256(self._text().encode()).hexdigest()

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text().splitlines()
        if tuple(lines[:4]) != SPECIAL_TOKENS:
            raise DataError(f"{path}: missing or reordered special-token header")
        tokens = lines[4:]
        if len(set(tokens)) != len(tokens):
            raise DataError(f"{path}: duplicate tokens in vocabulary file")
        return cls(token_to_id={tok: i + 4 for i, tok in enumerate(tokens)})


def build_vocabulary(corpus: list[str], max_size: int) -> Vocabulary:
    """Rank tokens by frequency (ties lexicographic) and keep the top ones.

    ``max_size`` counts the four reserved ids, so at most ``max_size - 4``
    text tokens are retained. Deterministic regardless of document order.
    """
    if not corpus:
        raise ContractError("corpus must be non-empty")
    if max_size < 4:
        raise ContractError(f"max_size must be >= 4, got {max_size}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(normalize(text))
    ranked = sorted(counts, key=lambda tok: (-counts[tok], tok))
    kept = ranked[: max_size - 4]
    return Vocabulary(token_to_id={tok: i + 4 for i, tok in enumerate(kept)})


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Map text to ids, with unknown tokens becoming UNK rather than dropped
    so positions stay aligned with the source."""
    return TokenSequence(
        ids=tuple(map(vocab.token_to_id.get, normalize(text), repeat(UNK_ID)))
    )
