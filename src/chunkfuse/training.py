"""Mini-batch training for the linear chunk scorer.

Chunks inherit their note's label. Optimization is gradient descent on
the multinomial cross-entropy with decoupled weight decay, gradient
accumulation, and a linear warmup/decay learning-rate schedule. After
every epoch the model is evaluated note-level (score all chunks of each
validation note, average them, macro-AUROC over notes); training stops
early once that score stops improving over epochs that took an optimizer
step, and the weights of the best such epoch are what the caller gets
back.

The weights change only at optimizer steps, so the trainer works one
segment at a time: the micro-batches up to the next step (or the epoch's
end, where validation reads the weights) share one row gather, one
forward and one backward product. Each element is summed in the same
order as with one product per micro-batch, so the result is bit-identical
to per-micro-batch training.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .chunker import ChunkingConfig, chunk, coverage_check
from .errors import ConfigError, DataError, NumericDivergenceError
from .metrics import macro_auroc
from .scoring import (
    _BLOCK_WINDOWS,
    LinearScorer,
    ScorerDescriptor,
    TrainerConfig,
    chunks_to_csr,
    pool_windows,
    softmax_rows,
)
from .seeds import child_seed
from .tokenizer import Vocabulary

if TYPE_CHECKING:
    from scipy import sparse

logger = logging.getLogger(__name__)

# Float64 cells one segment product may allocate, its block-diagonal D and
# its gradient blocks together. A longer segment is split into several
# products; the weights do not change inside a segment, so the split
# changes no bit.
_SEGMENT_CELLS = 1 << 20


@dataclass(frozen=True)
class TrainingSplit:
    """One split, windowed and featurized once for every trainer. Note
    ``i``'s ``window_counts[i]`` windows are consecutive rows of ``features``,
    all labeled ``labels[i]``; columns are ids of vocabulary ``vocab_sha256``."""

    note_ids: tuple[str, ...]
    labels: np.ndarray  # (notes,) int64
    window_counts: np.ndarray  # (notes,) int64
    features: sparse.csr_matrix  # (windows, vocab)
    vocab_sha256: str


def build_labeled_chunks(
    note_ids: Sequence[str],
    sequences: Sequence[np.ndarray],
    labels: Sequence[int],
    chunking: ChunkingConfig,
    vocab: Vocabulary,
) -> TrainingSplit:
    """Window and featurize a split's id arrays in one pass over its notes.

    ``sequences[i]`` is note ``note_ids[i]``'s ids under ``vocab``, as
    ``build_vocabulary`` keeps them; the windows are spans of those arrays.
    Once ``_BLOCK_WINDOWS`` windows are pending they are featurized and
    dropped, so the split's windows are never held whole. The block
    matrices are joined once, into the same arrays as one
    ``chunks_to_csr`` call over every window. scipy is imported here,
    where that join happens.
    """
    from scipy import sparse

    if not len(note_ids) == len(sequences) == len(labels):
        raise DataError(
            f"{len(note_ids)} notes, {len(sequences)} id arrays and {len(labels)} labels"
        )
    blocks, pending, counts = [], [], []
    for ids in sequences:
        note_windows = chunk(ids, chunking)
        coverage_check(ids, note_windows, chunking)
        pending.extend(note_windows)
        counts.append(len(note_windows))
        if len(pending) >= _BLOCK_WINDOWS:
            blocks.append(chunks_to_csr(pending, len(vocab)))
            pending = []
    if pending or not blocks:  # an empty split is one (0, vocab) block
        blocks.append(chunks_to_csr(pending, len(vocab)))
    return TrainingSplit(
        note_ids=tuple(note_ids),
        labels=np.array(labels, dtype=np.int64),
        window_counts=np.array(counts, dtype=np.int64),
        features=sparse.vstack(blocks, format="csr"),
        vocab_sha256=vocab.sha256(),
    )


def lr_schedule(step: int, peak: float, warmup_steps: int, total_steps: int) -> float:
    """Zero at step 0, linear to ``peak`` at warmup_steps, linear back to
    zero at total_steps. Flat zero beyond the schedule."""
    if step <= 0:
        return 0.0
    if step <= warmup_steps:
        return peak * step / warmup_steps
    if total_steps <= warmup_steps or step >= total_steps:
        return 0.0
    return peak * (total_steps - step) / (total_steps - warmup_steps)


def loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    features: np.ndarray | sparse.csr_matrix,
    labels: np.ndarray,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy of each micro-batch and its analytic gradient.

    The rows are consecutive micro-batches of ``batch_size`` rows, the last
    possibly shorter. They share one forward product and one backward
    product ``D @ features``, where the block-diagonal ``D`` holds each
    micro-batch's ``delta.T`` in its own row block: every gradient element
    sums the same products in the same order as one product per
    micro-batch, and the added zeros change nothing. Returns the losses
    ``(k,)``, weight gradients ``(k, classes, vocab)`` and bias gradients
    ``(k, classes)``.

    Weight decay is decoupled (applied at the optimizer step), so it is
    deliberately absent here; this is the pure data term.
    """
    rows = len(labels)
    classes = len(bias)
    starts = range(0, rows, batch_size)
    k = len(starts)
    probs = softmax_rows(np.asarray(features @ weights.T + bias))
    nll = -np.log(np.clip(probs[np.arange(rows), labels], 1e-300, None))
    delta = probs
    delta[np.arange(rows), labels] -= 1.0
    losses = np.empty(k)
    grad_b = np.empty((k, classes))
    block_diag = np.zeros((k * classes, rows))
    for j, lo in enumerate(starts):
        part = delta[lo : lo + batch_size]
        losses[j] = nll[lo : lo + batch_size].mean()
        part /= len(part)
        grad_b[j] = part.sum(axis=0)
        block_diag[j * classes : (j + 1) * classes, lo : lo + batch_size] = part.T
    grad_w = np.asarray(block_diag @ features).reshape(k, classes, -1)
    return losses, grad_w, grad_b


class EarlyStopping:
    """Halt when the monitored value fails to beat the best by ``delta``
    for ``patience`` consecutive updates."""

    def __init__(self, delta: float, patience: int):
        self.delta = delta
        self.patience = patience
        self.best_value = -math.inf
        self.streak = 0

    def update(self, value: float) -> bool:
        if value - self.best_value < self.delta:
            self.streak += 1
        else:
            self.streak = 0
        self.best_value = max(self.best_value, value)
        return self.streak >= self.patience


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    val_auroc: float
    lr: float


@dataclass(frozen=True)
class TrainingLog:
    """What happened during one training run.

    ``seen_note_ids`` records every note the trainer touched, so callers
    can assert the test split never leaked in.
    """

    epochs: tuple[EpochStats, ...]
    best_epoch: int
    best_val_auroc: float
    stopped_early: bool
    total_optimizer_steps: int
    seen_note_ids: frozenset[str] = field(repr=False)


def _micro_batches_per_product(
    classes: int, batch_size: int, vocab: int, accumulation_steps: int
) -> int:
    """Most micro-batches one ``loss_and_grad`` call takes: its ``D``
    (``k * classes`` by ``k * batch_size``) and gradient blocks (``k *
    classes`` by ``vocab``) stay within ``_SEGMENT_CELLS``; one always fits."""
    k = 1
    while k < accumulation_steps and (
        (k + 1) * classes * ((k + 1) * batch_size + vocab) <= _SEGMENT_CELLS
    ):
        k += 1
    return k


def train_linear_scorer(
    train: TrainingSplit,
    validation: TrainingSplit,
    descriptor: ScorerDescriptor,
    config: TrainerConfig,
    seed: int,
) -> tuple[LinearScorer, TrainingLog]:
    """Fit ``descriptor``'s linear scorer; return it with the best-validation weights.

    Weight init and epoch shuffling use named substreams of ``seed``, so
    identical inputs reproduce identical checkpoints bit for bit. A config
    whose micro-batches over all epochs are fewer than ``accumulation_steps``
    would return the random initialization untrained: it is a ConfigError.
    """
    if not train.note_ids:
        raise DataError("training set is empty")
    if not validation.note_ids:
        raise DataError("validation set is empty")
    num_classes = descriptor.num_classes
    features = train.features
    flat_labels = np.repeat(train.labels, train.window_counts)
    if flat_labels.max(initial=0) >= num_classes:
        raise DataError("label outside class range")

    n = features.shape[0]
    batches_per_epoch = math.ceil(n / config.batch_size)
    if batches_per_epoch * config.max_epochs < config.accumulation_steps:
        raise ConfigError(
            f"{n} training windows at batch_size {config.batch_size} give"
            f" {batches_per_epoch * config.max_epochs} micro-batches in max_epochs"
            f" {config.max_epochs}, fewer than accumulation_steps"
            f" {config.accumulation_steps}: no optimizer step would run"
        )

    rng_init = np.random.default_rng(child_seed(seed, "init"))
    rng_shuffle = np.random.default_rng(child_seed(seed, "shuffle"))
    weights = rng_init.normal(scale=0.01, size=(num_classes, features.shape[1]))
    bias = np.zeros(num_classes)

    total_steps = batches_per_epoch * config.max_epochs // config.accumulation_steps

    stopper = EarlyStopping(config.early_stop_delta, config.early_stop_patience)
    best = {"auroc": -math.inf, "epoch": 0, "weights": weights.copy(), "bias": bias.copy()}
    epochs: list[EpochStats] = []
    stopped_early = False
    opt_step = 0
    micro_in_window = 0
    acc_w = np.zeros_like(weights)
    acc_b = np.zeros_like(bias)
    current_lr = 0.0

    per_product = _micro_batches_per_product(
        num_classes, config.batch_size, features.shape[1], config.accumulation_steps
    )

    for epoch in range(1, config.max_epochs + 1):
        order = rng_shuffle.permutation(n)
        losses = []
        steps_before = opt_step
        lo = 0
        while lo < n:  # one segment: up to the next optimizer step or epoch end
            k = min(config.accumulation_steps - micro_in_window, per_product)
            hi = min(n, lo + k * config.batch_size)
            idx = order[lo:hi]
            seg_losses, grads_w, grads_b = loss_and_grad(
                weights, bias, features[idx], flat_labels[idx], config.batch_size
            )
            lo = hi
            for loss, grad_w, grad_b in zip(seg_losses, grads_w, grads_b):
                if math.isnan(loss):
                    raise NumericDivergenceError(f"loss became NaN at optimizer step {opt_step}")
                losses.append(float(loss))
                acc_w += grad_w
                acc_b += grad_b
            micro_in_window += len(seg_losses)
            if micro_in_window == config.accumulation_steps:
                opt_step += 1
                current_lr = lr_schedule(
                    opt_step, config.learning_rate, config.warmup_steps, total_steps
                )
                weights -= current_lr * (acc_w / config.accumulation_steps)
                weights -= current_lr * config.weight_decay * weights
                bias -= current_lr * (acc_b / config.accumulation_steps)
                acc_w[:] = 0.0
                acc_b[:] = 0.0
                micro_in_window = 0
        window_probs = softmax_rows(np.asarray(validation.features @ weights.T + bias))
        note_probs = pool_windows(window_probs, validation.window_counts)
        val_auroc = macro_auroc(note_probs, validation.labels, num_classes).macro_auc
        epochs.append(
            EpochStats(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                val_auroc=val_auroc,
                lr=current_lr,
            )
        )
        # An epoch that took no optimizer step left the weights as they
        # were: before the first step they are the random initialization,
        # never a result, and after it they are no evidence of a plateau.
        if opt_step == steps_before:
            continue
        if val_auroc > best["auroc"]:
            best = {
                "auroc": val_auroc,
                "epoch": epoch,
                "weights": weights.copy(),
                "bias": bias.copy(),
            }
        if stopper.update(val_auroc):
            stopped_early = True
            logger.info("early stop at epoch %d (best %.4f at epoch %d)",
                        epoch, best["auroc"], best["epoch"])
            break

    scorer = LinearScorer(
        descriptor=descriptor,
        weights=best["weights"],
        bias=best["bias"],
        trainer_config=config,
        best_val_auroc=best["auroc"],
        vocab_sha256=train.vocab_sha256,
    )
    log = TrainingLog(
        epochs=tuple(epochs),
        best_epoch=best["epoch"],
        best_val_auroc=best["auroc"],
        stopped_early=stopped_early,
        total_optimizer_steps=opt_step,
        seen_note_ids=frozenset(train.note_ids + validation.note_ids),
    )
    return scorer, log
