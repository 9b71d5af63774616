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
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

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

if TYPE_CHECKING:
    from scipy import sparse

# Windows per block. The featurizer gathers and counts one block per
# np.unique call, linear scoring featurizes and scores one block at a time,
# and training featurizes a block of pending windows at a time and joins
# the matrices once. So no split's sort keys, no training split's windows
# and no test split's CSR exist whole at once, which bounds peak memory.
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
        if self.kind is ScorerKind.LINEAR and self.metadata.get("checkpoint") == "":
            raise ConfigError(f"scorer {self.scorer_id}: metadata.checkpoint is an empty path")


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


def check_classes(descriptor: ScorerDescriptor, given: int) -> None:
    """Refuse a scorer whose own data gives other than the task's class count."""
    if given != descriptor.num_classes:
        raise ConfigError(f"gives {given} classes, the task has {descriptor.num_classes}")


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

    def __post_init__(self) -> None:
        check_classes(self.descriptor, len(self.probs))

    def score_batch(self, chunks: Sequence[Chunk]) -> np.ndarray:
        return np.tile(np.asarray(self.probs, dtype=np.float64), (len(chunks), 1))


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
        check_classes(self.descriptor, 2)

    def score_batch(self, chunks: Sequence[Chunk]) -> np.ndarray:
        """Scan each note once: a window holds the pattern if the first
        occurrence at or after its start also ends by its end."""
        width = len(self.pattern_ids)
        offsets: dict[int, list[int]] = {}  # id(source) -> the note's hits
        rows = []
        for c in chunks:
            hits = offsets.get(id(c.source))
            if hits is None:
                hits = find_pattern(c.source.tolist(), self.pattern_ids)
                offsets[id(c.source)] = hits
            i = bisect_left(hits, c.start)
            hit = i < len(hits) and hits[i] + width <= c.end
            rows.append(PATTERN_HIT if hit else PATTERN_MISS)
        return np.array(rows, dtype=np.float64).reshape(len(chunks), 2)

    @classmethod
    def for_pattern(
        cls, descriptor: ScorerDescriptor, pattern_ids: Sequence[int]
    ) -> "PatternScorer":
        return cls(descriptor, tuple(pattern_ids))


def chunks_to_csr(chunks: Sequence[Chunk], vocab_size: int) -> sparse.csr_matrix:
    """Bag-of-token-id counts, one CSR row per chunk: the one featurizer.

    Only a chunk's content is counted, never a frame, and reserved ids
    (UNK) count for nothing; an id at or past ``vocab_size`` raises
    ContractError naming the first such id in window order. A window's
    ids are a slice of its note's int32 array, so no note is converted.
    Windows are counted in blocks of ``_BLOCK_WINDOWS`` with one
    ``np.unique`` over ``row * vocab_size + id`` keys (int32 when a
    block's keys fit, else int64), which yields each row's columns in
    ascending order: the same float counts in the same order as a per-row
    dict count, so ``features @ W.T`` is bit-for-bit the same. Each
    block's counts and columns are made at the matrix's own dtypes
    (float64 and int32), so scipy keeps the joined arrays as they are.

    scipy is imported here, where a matrix is built, so a run that builds
    none never loads it.
    """
    from scipy import sparse

    counts, cols = [np.empty(0, np.float64)], [np.empty(0, np.int32)]
    indptr = np.zeros(len(chunks) + 1, np.int64)
    for lo in range(0, len(chunks), _BLOCK_WINDOWS):
        block = chunks[lo : lo + _BLOCK_WINDOWS]
        spans = [c.content for c in block]
        ids = np.concatenate(spans)
        outside = ids >= vocab_size
        if outside.any():
            raise ContractError(
                f"token id {ids[outside.argmax()]} outside vocabulary of {vocab_size}"
            )
        text = ids >= FIRST_TEXT_ID
        key_type = np.int32 if len(block) * vocab_size < 2**31 else np.int64
        row_of = np.repeat(np.arange(len(block), dtype=key_type), [len(s) for s in spans])
        keys, n = np.unique(
            row_of[text] * vocab_size + ids[text].astype(key_type), return_counts=True
        )
        indptr[lo + 1 : lo + 1 + len(block)] = np.bincount(
            keys // vocab_size, minlength=len(block)
        )
        cols.append((keys % vocab_size).astype(np.int32, copy=False))
        counts.append(n.astype(np.float64))
    np.cumsum(indptr, out=indptr)
    return sparse.csr_matrix(
        (np.concatenate(counts), np.concatenate(cols), indptr),
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
        """Featurize and score ``_BLOCK_WINDOWS`` windows at a time. Each
        row's logits depend on that row alone, so the rows are bit-for-bit
        those of one product over the whole batch."""
        rows = [np.empty((0, self.descriptor.num_classes))]
        for lo in range(0, len(chunks), _BLOCK_WINDOWS):
            features = chunks_to_csr(chunks[lo : lo + _BLOCK_WINDOWS], self.vocab_size)
            rows.append(softmax_rows(np.asarray(features @ self.weights.T + self.bias)))
        return np.concatenate(rows)

    def save(self, path: str | Path) -> None:
        """Checkpoint as one JSON document; identical scorers serialize to
        identical bytes, so determinism is checkable at the file level."""
        doc = {
            "vocab_size": self.vocab_size,
            "num_classes": self.descriptor.num_classes,
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
    def load(cls, path: str | Path, descriptor: ScorerDescriptor) -> "LinearScorer":
        """The checkpoint at ``path`` as ``descriptor``'s scorer."""
        doc = read_json(path, "checkpoint")
        try:
            k, v = doc["num_classes"], doc["vocab_size"]
            config = doc.get("trainer_config")
            if config is not None:
                what = f"checkpoint {path} trainer_config"
                config = build_block(what, TrainerConfig, as_object(config, what))
            weights = np.array(doc["weights"], dtype=np.float64).reshape(k, v)
            bias = np.array(doc["bias"], dtype=np.float64)
            if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
                raise ValueError("non-finite weights or bias")
            check_classes(descriptor, k)
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
