"""Chunk scorers: a batch of chunks in, a (chunks, classes) array of
probability rows out.

Four implementations share the contract: a trainable linear bag-of-tokens
model (desk-scale stand-in for a fine-tuned encoder), a remote HTTP
scorer (see remote.py), a constant mock for tests, and a pattern
detector that fires on a contiguous token-id subsequence. The linear
scorer is order-blind within a chunk; the pattern scorer exists to
exercise behaviors that depend on token adjacency, such as signals
broken across chunk boundaries. ``score_chunks`` is the one boundary
every scorer's output crosses, and it checks that output once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np
from scipy import sparse

from .chunker import Chunk
from .corpus import find_pattern
from .errors import (
    ConfigError,
    ContractError,
    ScorerError,
    as_object,
    build_block,
    config_block,
    read_json,
    write_text,
)
from .tokenizer import FIRST_TEXT_ID

# Windows featurized per np.unique call. Blocks bound the int64 id and key
# arrays; one flat array for a whole test split raises peak memory.
_BLOCK_WINDOWS = 128

# The pattern scorer's row for a window that holds its pattern, and for one
# that does not.
PATTERN_HIT = (0.1, 0.9)
PATTERN_MISS = (0.5, 0.5)


@dataclass(frozen=True)
class ProbabilityVector:
    """Class distribution for one chunk or note."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ContractError("probability vector must be non-empty")
        if any(p < -1e-9 or p > 1 + 1e-9 for p in self.probs):
            raise ContractError(f"entries outside [0, 1]: {self.probs}")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-6:
            raise ContractError(f"probabilities sum to {total}, not 1")

    def __len__(self) -> int:
        return len(self.probs)


class ScorerKind(Enum):
    LINEAR = "linear"
    REMOTE = "remote"
    MOCK = "mock"
    PATTERN = "pattern"


# The one metadata key each kind reads; any other key is refused.
METADATA_KEYS = {
    ScorerKind.LINEAR: "checkpoint",
    ScorerKind.REMOTE: "endpoint",
    ScorerKind.MOCK: "probs",
    ScorerKind.PATTERN: "pattern",
}


@config_block
class ScorerDescriptor:
    """Identity and wiring of one ensemble member."""

    scorer_id: str
    kind: ScorerKind
    num_classes: int
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ContractError("scorers need at least 2 classes")
        key = METADATA_KEYS[self.kind]
        if set(self.metadata) - {key}:
            raise ConfigError(f"scorer {self.scorer_id} reads only metadata.{key},"
                              f" got keys {sorted(self.metadata)}")


@config_block
class TrainerConfig:
    """Optimization settings for the linear scorer.

    The default learning rate is 1e-2; encoder-style presets (1e-5) are
    far too small for a linear model to converge within max_epochs.
    """

    learning_rate: float = 1e-2
    weight_decay: float = 0.01
    max_epochs: int = 200
    early_stop_delta: float = 0.0001
    early_stop_patience: int = 3
    accumulation_steps: int = 10
    warmup_steps: int = 50
    batch_size: int = 18
    seed: int = 0

    def __post_init__(self) -> None:
        positives = {
            "learning_rate": self.learning_rate,
            "max_epochs": self.max_epochs,
            "early_stop_delta": self.early_stop_delta,
            "accumulation_steps": self.accumulation_steps,
            "warmup_steps": self.warmup_steps,
            "batch_size": self.batch_size,
        }
        for name, value in positives.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")


def parse_probs(text: str, what: str) -> tuple[float, ...]:
    """A comma-separated probability row such as ``"0.6,0.4"``; values
    that are not numbers are a ConfigError naming ``what``."""
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as err:
        raise ConfigError(f"{what} {text!r} are not numbers") from err


class ChunkScorer(Protocol):
    descriptor: ScorerDescriptor

    def score_batch(self, chunks: Sequence[Chunk]) -> np.ndarray: ...


def score_chunks(scorer: ChunkScorer, chunks: Sequence[Chunk]) -> np.ndarray:
    """Score a batch and check the result before anything uses it.

    Returns a (len(chunks), num_classes) float array whose rows are
    finite, lie in [0, 1] within 1e-9 and sum to 1 within 1e-6 (the
    ProbabilityVector tolerances); anything else raises ScorerError.
    """
    name = repr(scorer.descriptor.scorer_id)
    scores = np.asarray(scorer.score_batch(chunks), dtype=np.float64)
    expected = (len(chunks), scorer.descriptor.num_classes)
    if scores.shape != expected:
        raise ScorerError(f"{name} returned scores of shape {scores.shape}, not {expected}")
    bad = (
        ~np.isfinite(scores).all(axis=1)
        | ((scores < -1e-9) | (scores > 1 + 1e-9)).any(axis=1)
        | (np.abs(scores.sum(axis=1) - 1.0) > 1e-6)
    )
    if bad.any():
        i = int(bad.argmax())
        raise ScorerError(f"{name} scored row {i} as {scores[i].tolist()}, not a distribution")
    return scores


@dataclass(frozen=True)
class MockScorer:
    """The same probability row for every window."""

    descriptor: ScorerDescriptor
    probs: tuple[float, ...]

    def score_batch(self, chunks: Sequence[Chunk]) -> np.ndarray:
        return np.tile(np.asarray(self.probs, dtype=np.float64), (len(chunks), 1))

    @classmethod
    def constant(cls, scorer_id: str, probs: Sequence[float]) -> "MockScorer":
        return cls(
            descriptor=ScorerDescriptor(
                scorer_id=scorer_id, kind=ScorerKind.MOCK, num_classes=len(probs)
            ),
            probs=tuple(probs),
        )


@dataclass(frozen=True)
class PatternScorer:
    """Binary detector for a contiguous id subsequence in chunk content.

    Contiguity makes it sensitive to chunk boundaries: a pattern split
    across two windows is invisible unless the overlap rejoins it.
    """

    descriptor: ScorerDescriptor
    pattern_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.pattern_ids:
            raise ContractError("pattern_ids must be non-empty")
        if self.descriptor.num_classes != 2:
            raise ContractError("pattern scorer is binary")

    def score_batch(self, chunks: Sequence[Chunk]) -> np.ndarray:
        rows = [
            PATTERN_HIT if find_pattern(c.content, self.pattern_ids) else PATTERN_MISS
            for c in chunks
        ]
        return np.array(rows, dtype=np.float64).reshape(len(chunks), 2)

    @classmethod
    def for_pattern(cls, scorer_id: str, pattern_ids: Sequence[int]) -> "PatternScorer":
        return cls(
            descriptor=ScorerDescriptor(
                scorer_id=scorer_id, kind=ScorerKind.PATTERN, num_classes=2
            ),
            pattern_ids=tuple(pattern_ids),
        )


def chunks_to_csr(chunks: Sequence[Chunk], vocab_size: int) -> sparse.csr_matrix:
    """Bag-of-token-id counts, one CSR row per chunk: the one featurizer.

    Only a chunk's content is counted, never a frame, and reserved ids
    (UNK) count for nothing; an id at or past ``vocab_size`` raises
    ContractError. Windows are counted in blocks of ``_BLOCK_WINDOWS``
    with one ``np.unique`` over ``row * vocab_size + id`` keys, which
    yields each row's columns in ascending order: the same float counts
    in the same order as a per-row dict count, so ``features @ W.T`` is
    bit-for-bit the same.
    """
    empty = np.empty(0, np.int64)
    rows, cols, counts = [empty], [empty], [empty]
    for lo in range(0, len(chunks), _BLOCK_WINDOWS):
        block = chunks[lo : lo + _BLOCK_WINDOWS]
        lengths = [c.end - c.start for c in block]
        ids = np.fromiter(
            chain.from_iterable(c.content for c in block), dtype=np.int64, count=sum(lengths)
        )
        outside = ids >= vocab_size
        if outside.any():
            raise ContractError(
                f"token id {ids[outside.argmax()]} outside vocabulary of {vocab_size}"
            )
        text = ids >= FIRST_TEXT_ID
        row_of = np.repeat(np.arange(len(block), dtype=np.int64), lengths)
        keys, n = np.unique(row_of[text] * vocab_size + ids[text], return_counts=True)
        rows.append(keys // vocab_size + lo)
        cols.append(keys % vocab_size)
        counts.append(n)
    row = np.concatenate(rows)
    return sparse.csr_matrix(
        (
            np.concatenate(counts).astype(np.float64),
            np.concatenate(cols),
            np.searchsorted(row, np.arange(len(chunks) + 1)),
        ),
        shape=(len(chunks), vocab_size),
    )


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def pool_windows(scores: np.ndarray, window_counts: Sequence[int]) -> np.ndarray:
    """Mean-pool window rows to note rows: note ``i`` owns the next
    ``window_counts[i]`` (at least one) rows of ``scores``, in note order.
    Returns a ``(notes, classes)`` array; the one pooling kernel.

    Each note's sum is centred on its first row, so identical rows pool to
    exactly that row whatever their count: a plain ``sum / count`` can
    differ from the row in the last bit, by an amount that depends on the
    count, and the AUROC would rank that as signal."""
    counts = np.asarray(window_counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    first = scores[starts]
    offsets = np.add.reduceat(scores - np.repeat(first, counts, axis=0), starts, axis=0)
    return first + offsets / counts[:, None]


@dataclass(frozen=True)
class LinearScorer:
    """Multinomial logistic regression over bag-of-token-id counts."""

    descriptor: ScorerDescriptor
    weights: np.ndarray  # (num_classes, vocab_size)
    bias: np.ndarray  # (num_classes,)
    trainer_config: TrainerConfig | None = None
    best_val_auroc: float | None = None
    vocab_sha256: str | None = None  # Vocabulary.sha256() of the training vocabulary

    def __post_init__(self) -> None:
        k = self.descriptor.num_classes
        if self.weights.shape[0] != k or self.bias.shape != (k,):
            raise ContractError(
                f"weight shape {self.weights.shape}/{self.bias.shape}"
                f" inconsistent with {k} classes"
            )

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[1]

    def score_batch(self, chunks: Sequence[Chunk]) -> np.ndarray:
        features = chunks_to_csr(chunks, self.vocab_size)
        logits = features @ self.weights.T + self.bias
        return softmax_rows(np.asarray(logits))

    def save(self, path: str | Path) -> None:
        """Checkpoint as one JSON document; identical scorers serialize to
        identical bytes, so determinism is checkable at the file level."""
        doc = {
            "vocab_size": self.vocab_size,
            "num_classes": self.descriptor.num_classes,
            "scorer_id": self.descriptor.scorer_id,
            "weights": [float(w) for w in self.weights.ravel()],
            "bias": [float(b) for b in self.bias],
            "trainer_config": (
                None if self.trainer_config is None else vars(self.trainer_config)
            ),
            "best_val_auroc": self.best_val_auroc,
            "vocab_sha256": self.vocab_sha256,
        }
        write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n", "checkpoint")

    @classmethod
    def load(cls, path: str | Path) -> "LinearScorer":
        doc = read_json(path, "checkpoint")
        try:
            k, v = doc["num_classes"], doc["vocab_size"]
            config = doc.get("trainer_config")
            if config is not None:
                what = f"checkpoint {path} trainer_config"
                config = build_block(what, TrainerConfig, as_object(config, what))
            descriptor = ScorerDescriptor(
                scorer_id=doc.get("scorer_id", "linear"), kind=ScorerKind.LINEAR, num_classes=k
            )
            weights = np.array(doc["weights"], dtype=np.float64).reshape(k, v)
            bias = np.array(doc["bias"], dtype=np.float64)
            if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
                raise ValueError("non-finite weights or bias")
            return cls(
                descriptor=descriptor,
                weights=weights,
                bias=bias,
                trainer_config=config,
                best_val_auroc=doc.get("best_val_auroc"),
                vocab_sha256=doc.get("vocab_sha256"),
            )
        except (KeyError, TypeError, ValueError, OverflowError, ContractError) as err:
            raise ConfigError(f"malformed checkpoint {path}: {err!r}") from err
