"""Combining per-chunk, per-model predictions into one note-level vector.

Two reductions over the chunk-by-model prediction matrix:

- weighted_fuse: convex-combine the models within each chunk using
  per-model weights, then average over chunks.
- ensemble_fuse: average each model over its chunks, then average the
  models; algebraically the uniform-weight case of weighted_fuse.

Both are plain averaging over probability vectors, so outputs stay on
the simplex by convexity. Weights are per-model; per-chunk weighting is
deliberately out of scope (uniform chunk treatment is the published
result path).

The experiment pipeline fuses its cached (chunks, classes) score arrays
in ``experiment._note_probs``; this module is the independent reference
that tests and the benchmark's fusion check compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, config_block
from .scoring import ProbabilityVector


@dataclass(frozen=True)
class PredictionMatrix:
    """Rectangular grid of vectors indexed [chunk][model]."""

    note_id: str
    entries: tuple[tuple[ProbabilityVector, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise ContractError("prediction matrix must be non-empty")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ContractError("prediction matrix must be rectangular")
        classes = {len(v) for row in self.entries for v in row}
        if len(classes) != 1:
            raise ContractError(f"mixed class counts in matrix: {classes}")

    @property
    def num_chunks(self) -> int:
        return len(self.entries)

    @property
    def num_models(self) -> int:
        return len(self.entries[0])

    def to_array(self) -> np.ndarray:
        """(chunks, models, classes) float array."""
        return np.array(
            [[v.probs for v in row] for row in self.entries], dtype=np.float64
        )


@config_block
class FusionSpec:
    """Per-model weights, normalized at construction, so any finite
    non-negative vector with positive mass is accepted."""

    model_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.model_weights:
            raise ContractError("model_weights must be non-empty")
        if min(self.model_weights) < 0:  # the type rule has refused NaN and the infinities
            raise ContractError(f"model weights must be >= 0: {self.model_weights}")
        total = sum(self.model_weights)
        if not 0 < total < math.inf:
            raise ContractError("model weights must have positive, finite mass")
        if abs(total - 1.0) > 1e-9:
            object.__setattr__(
                self, "model_weights", tuple(w / total for w in self.model_weights)
            )

    @classmethod
    def uniform(cls, num_models: int) -> "FusionSpec":
        return cls(model_weights=(1.0 / num_models,) * num_models)


@dataclass(frozen=True)
class NotePrediction:
    """Fused note-level answer."""

    fused: ProbabilityVector
    num_chunks: int


def _vector(row: np.ndarray) -> ProbabilityVector:
    return ProbabilityVector(probs=tuple(map(float, row)))


def weighted_fuse(matrix: PredictionMatrix, spec: FusionSpec) -> NotePrediction:
    """Convex-combine models within each chunk, then average over chunks."""
    if len(spec.model_weights) != matrix.num_models:
        raise ContractError(
            f"{len(spec.model_weights)} weights for {matrix.num_models} models"
        )
    arr = matrix.to_array()
    weights = np.array(spec.model_weights)
    per_chunk_combined = np.einsum("kpc,p->kc", arr, weights)
    fused = per_chunk_combined.mean(axis=0)
    return NotePrediction(
        fused=_vector(fused),
        num_chunks=matrix.num_chunks,
    )


def ensemble_fuse(matrix: PredictionMatrix) -> NotePrediction:
    """Average each model over its chunks, then average the models.

    Kept as its own reduction (rather than delegating to weighted_fuse
    with uniform weights) so the equivalence of the two orderings stays
    independently testable.
    """
    arr = matrix.to_array()
    per_model = arr.mean(axis=0)
    fused = per_model.mean(axis=0)
    return NotePrediction(
        fused=_vector(fused),
        num_chunks=matrix.num_chunks,
    )
