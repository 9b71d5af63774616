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
end, where validation reads the weights) share one row gather and one
forward product, and each micro-batch's weight gradient is one backward
product over its own rows. The gather and the products run on the
training CSR's own arrays through scipy's compiled kernels, without its
matrix layer. Each element is summed in the same order as with one scipy
product per micro-batch, so the result is bit-identical to
per-micro-batch training.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .chunker import ChunkingConfig, chunk, coverage_check
from .errors import ConfigError, ContractError, DataError, NumericDivergenceError
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

# Float64 cells of one ``loss_and_grad`` call's gradient stack (``k *
# classes * vocab``). A longer segment is split into several calls; the
# weights do not change inside a segment, so the split changes no bit.
_SEGMENT_CELLS = 1 << 20


def _sparsetools():
    """scipy's compiled sparse kernels, which the trainer calls directly.

    On a training segment, scipy's public matrix layer (format checks and
    new arrays for every gather and product) costs about as much as the
    kernels' arithmetic, so the trainer calls the kernels behind it. They
    check no shape or dtype: callers pass one index dtype for row numbers,
    ``indptr`` and ``indices``, C-contiguous float64 values, and outputs
    that the kernel writes in place (an input of another dtype is silently
    cast; an output copy silently drops the result). The import is private
    to scipy and made here, on first use, so that scipy still loads only
    when a CSR is built.
    """
    from scipy.sparse import _sparsetools

    return _sparsetools


class _CsrArrays(NamedTuple):
    """The arrays of a CSR matrix, without scipy's matrix layer: what
    ``loss_and_grad`` reads of its ``features``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def _csr_arrays(features) -> _CsrArrays:
    """``features``' arrays as the kernels take them: ``indptr`` and
    ``indices`` at one index dtype, values as contiguous float64. Arrays
    already so are not copied."""
    index = np.result_type(features.indptr.dtype, features.indices.dtype)
    return _CsrArrays(
        features.indptr.astype(index, copy=False),
        features.indices.astype(index, copy=False),
        np.ascontiguousarray(features.data, dtype=np.float64),
        features.shape,
    )


class _RowGather:
    """Gathers rows of a CSR into index and value buffers that every
    gather reuses. They are sized to the ``max_rows`` rows with the most
    nonzeros, not to the whole matrix: fresh buffers would page-fault on
    every gather."""

    def __init__(self, features, max_rows: int):
        self.source = _csr_arrays(features)
        self.row_nnz = np.diff(self.source.indptr)
        most = int(np.sort(self.row_nnz)[-max_rows:].sum())
        self.indptr = np.zeros(max_rows + 1, self.source.indptr.dtype)
        self.indices = np.empty(most, self.source.indptr.dtype)
        self.data = np.empty(most)

    def take(self, rows: np.ndarray) -> _CsrArrays:
        """Rows ``rows`` (at most ``max_rows``, of the index dtype), in
        order, as views of the buffers: valid until the next ``take``."""
        count = len(rows)
        np.cumsum(self.row_nnz[rows], out=self.indptr[1 : count + 1])
        nnz = self.indptr[count]
        if nnz > len(self.indices):  # csr_row_index writes without a bounds check
            raise ContractError(f"{nnz} nonzeros do not fit a {len(self.indices)} buffer")
        src = self.source
        _sparsetools().csr_row_index(
            count, rows, src.indptr, src.indices, src.data, self.indices, self.data
        )
        return _CsrArrays(
            self.indptr[: count + 1], self.indices[:nnz], self.data[:nnz],
            (count, src.shape[1]),
        )


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
    features: _CsrArrays | sparse.csr_matrix,
    labels: np.ndarray,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy of each micro-batch and its analytic gradient.

    ``features`` is a scipy CSR matrix, or any object with its ``indptr``,
    ``indices``, ``data`` and ``shape``. The rows are consecutive
    micro-batches of ``batch_size`` rows, the last possibly shorter. They
    share one forward product; each micro-batch's weight gradient is one
    backward product ``delta.T @ rows`` over its own slice of the row
    pointer. Every element sums the same products in the same order as
    scipy's ``features @ weights.T`` and ``delta.T @ x``. Returns the
    losses ``(k,)``, weight gradients ``(k, classes, vocab)`` and bias
    gradients ``(k, classes)``.

    Weight decay is decoupled (applied at the optimizer step), so it is
    deliberately absent here; this is the pure data term.
    """
    kernels = _sparsetools()
    rows = len(labels)
    classes, vocab = weights.shape
    if tuple(features.shape) != (rows, vocab):
        raise ContractError(
            f"features of shape {tuple(features.shape)} for {rows} labels"
            f" and weights of shape {weights.shape}"
        )
    csr = _csr_arrays(features)
    logits = np.zeros((rows, classes))
    kernels.csr_matvecs(
        rows, vocab, classes, csr.indptr, csr.indices, csr.data,
        np.ascontiguousarray(weights.T), logits,
    )
    probs = softmax_rows(logits + bias)
    nll = -np.log(np.clip(probs[np.arange(rows), labels], 1e-300, None))
    delta = probs
    delta[np.arange(rows), labels] -= 1.0
    starts = range(0, rows, batch_size)
    losses = np.empty(len(starts))
    grad_b = np.empty((len(starts), classes))
    grad_w = np.zeros((len(starts), vocab, classes))
    for j, lo in enumerate(starts):
        hi = min(rows, lo + batch_size)
        losses[j] = nll[lo:hi].sum() / (hi - lo)  # .mean()'s float, without its wrapper
        part = delta[lo:hi]
        part /= hi - lo
        grad_b[j] = part.sum(axis=0)
        kernels.csc_matvecs(
            vocab, hi - lo, classes, csr.indptr[lo : hi + 1], csr.indices, csr.data,
            part, grad_w[j],
        )
    return losses, grad_w.transpose(0, 2, 1), grad_b


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


def _micro_batches_per_product(classes: int, vocab: int, accumulation_steps: int) -> int:
    """Most micro-batches one ``loss_and_grad`` call takes: its gradient
    stack (``k * classes * vocab`` cells) stays within ``_SEGMENT_CELLS``;
    one always fits."""
    return max(1, min(accumulation_steps, _SEGMENT_CELLS // (classes * vocab)))


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
    if validation.vocab_sha256 != train.vocab_sha256:
        raise ContractError(
            f"validation split is over vocabulary {validation.vocab_sha256},"
            f" the training split over {train.vocab_sha256}"
        )
    if validation.features.shape[1] != train.features.shape[1]:
        raise ContractError(
            f"validation features are {validation.features.shape[1]} columns wide,"
            f" training features {train.features.shape[1]}"
        )
    val_classes = np.unique(validation.labels)
    if len(val_classes) < 2:
        size = len(validation.note_ids)
        raise DataError(
            f"validation split of {size} note{'s' * (size != 1)} holds only class"
            f" {val_classes[0]}: early stopping's macro AUROC needs two classes"
        )
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
        num_classes, features.shape[1], config.accumulation_steps
    )
    gather = _RowGather(features, min(n, per_product * config.batch_size))

    for epoch in range(1, config.max_epochs + 1):
        order = rng_shuffle.permutation(n).astype(gather.indptr.dtype)
        losses = []
        steps_before = opt_step
        lo = 0
        while lo < n:  # one segment: up to the next optimizer step or epoch end
            k = min(config.accumulation_steps - micro_in_window, per_product)
            hi = min(n, lo + k * config.batch_size)
            idx = order[lo:hi]
            seg_losses, grads_w, grads_b = loss_and_grad(
                weights, bias, gather.take(idx), flat_labels[idx], config.batch_size
            )
            lo = hi
            if np.isnan(seg_losses).any():
                raise NumericDivergenceError(f"loss became NaN at optimizer step {opt_step}")
            losses.extend(seg_losses.tolist())
            for grad_w, grad_b in zip(grads_w, grads_b):
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
