import dataclasses
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from chunkfuse import scoring, training
from chunkfuse.chunker import ChunkingConfig, chunk
from chunkfuse.corpus import SECTION_ORDER, ClinicalNote
from chunkfuse.errors import (
    ChunkfuseError,
    ConfigError,
    ContractError,
    DataError,
    NumericDivergenceError,
)
from chunkfuse.metrics import auc, macro_auroc
from chunkfuse.scoring import (
    ScorerDescriptor,
    ScorerKind,
    TrainerConfig,
    chunks_to_csr,
    pool_windows,
    softmax_rows,
)
from chunkfuse.seeds import child_seed
from chunkfuse.tokenizer import build_vocabulary, tokenize
from chunkfuse.training import (
    EarlyStopping,
    EpochStats,
    TrainingLog,
    TrainingSplit,
    build_labeled_chunks,
    loss_and_grad,
    lr_schedule,
    train_linear_scorer,
)
from csr_matrix import as_matrix


def linear(num_classes=2):
    return ScorerDescriptor("linear", ScorerKind.LINEAR, num_classes=num_classes)


def note_with(text, note_id):
    sections = {k: "" for k in SECTION_ORDER}
    sections["PI"] = text
    return ClinicalNote(note_id=note_id, sections=sections)


def test_lr_schedule_shape():
    peak, warmup, total = 0.2, 50, 400
    assert lr_schedule(0, peak, warmup, total) == 0.0
    assert lr_schedule(25, peak, warmup, total) == pytest.approx(peak / 2)
    assert lr_schedule(50, peak, warmup, total) == peak
    assert lr_schedule(225, peak, warmup, total) == pytest.approx(peak / 2)
    assert lr_schedule(400, peak, warmup, total) == 0.0
    assert lr_schedule(500, peak, warmup, total) == 0.0
    # degenerate horizon: nothing scheduled after warmup
    assert lr_schedule(10, peak, 20, 15) == pytest.approx(peak / 2)
    assert lr_schedule(21, peak, 20, 15) == 0.0


def test_lr_schedule_is_piecewise_linear():
    peak, warmup, total = 1.0, 10, 100
    ramp = [lr_schedule(s, peak, warmup, total) for s in range(11)]
    diffs = np.diff(ramp)
    assert np.allclose(diffs, diffs[0])
    decay = [lr_schedule(s, peak, warmup, total) for s in range(10, 101)]
    assert np.allclose(np.diff(decay), np.diff(decay)[0])


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    for _ in range(3):
        weights = rng.normal(size=(3, 10))
        bias = rng.normal(size=3)
        features = sparse.csr_matrix(rng.poisson(1.0, size=(6, 10)).astype(float))
        labels = rng.integers(0, 3, size=6)
        # One micro-batch of every row: entry 0 of each result.
        _, (grad_w,), (grad_b,) = loss_and_grad(
            weights, bias, features, labels, len(labels)
        )
        h = 1e-6

        def loss_at(w, b):
            return loss_and_grad(w, b, features, labels, len(labels))[0][0]

        for index in np.ndindex(weights.shape):
            bumped = weights.copy()
            bumped[index] += h
            up = loss_at(bumped, bias)
            bumped[index] -= 2 * h
            down = loss_at(bumped, bias)
            numeric = (up - down) / (2 * h)
            scale = max(abs(numeric), abs(grad_w[index]), 1e-8)
            assert abs(numeric - grad_w[index]) / scale < 1e-4
        for i in range(3):
            bumped = bias.copy()
            bumped[i] += h
            up = loss_at(weights, bumped)
            bumped[i] -= 2 * h
            down = loss_at(weights, bumped)
            numeric = (up - down) / (2 * h)
            scale = max(abs(numeric), abs(grad_b[i]), 1e-8)
            assert abs(numeric - grad_b[i]) / scale < 1e-4


def test_early_stopping_fires_at_exact_epoch():
    stopper = EarlyStopping(delta=0.0001, patience=3)
    outcomes = [stopper.update(v) for v in [0.5, 0.6, 0.7, 0.7, 0.7, 0.7]]
    assert outcomes == [False, False, False, False, False, True]
    assert stopper.best_value == 0.7


def test_early_stopping_resets_on_improvement():
    stopper = EarlyStopping(delta=0.01, patience=2)
    assert not stopper.update(0.5)
    assert not stopper.update(0.5)  # streak 1
    assert not stopper.update(0.6)  # real improvement resets
    assert not stopper.update(0.6)
    assert stopper.update(0.6)


def test_early_stopping_counts_subthreshold_gains_as_stall():
    stopper = EarlyStopping(delta=0.01, patience=3)
    values = [0.5, 0.5005, 0.501, 0.5015]
    assert [stopper.update(v) for v in values] == [False, False, False, True]


def labeled_split(notes, labels, chunking, vocab):
    """``build_labeled_chunks`` over the notes' ids under ``vocab``, as int32
    arrays like those the pipeline's vocabulary pass keeps."""
    sequences = [np.array(tokenize(n.assembled_text, vocab).ids, np.int32) for n in notes]
    return build_labeled_chunks([n.note_id for n in notes], sequences, labels, chunking, vocab)


def test_build_labeled_chunks():
    vocab = build_vocabulary([("fi fo", True)], max_size=10)[0]
    notes = [note_with("fi fo " * 30, "a"), note_with("fo", "b")]
    split = labeled_split(notes, [1, 0], ChunkingConfig(capacity=20, overlap=5), vocab)
    assert split.note_ids == ("a", "b")
    assert split.labels.tolist() == [1, 0]
    assert split.window_counts.tolist() == [4, 1]  # 60 tokens, stride 15
    assert split.features.shape == (5, len(vocab))
    fi, fo = vocab.token_to_id["fi"], vocab.token_to_id["fo"]
    assert as_matrix(split.features)[:, [fi, fo]].toarray().tolist() == [
        [10, 10], [10, 10], [10, 10], [7, 8], [0, 1]
    ]
    assert split.vocab_sha256 == vocab.sha256()
    with pytest.raises(DataError):
        labeled_split(notes, [1], ChunkingConfig(), vocab)


FI_FO_VOCAB = build_vocabulary([("fi fo fum", True)], max_size=10)[0]


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(["fi", "fo", "fum", "unseen"]), max_size=25), max_size=12
    ),
    stride=st.integers(1, 4),
    overlap=st.integers(0, 4),
    block=st.sampled_from([1, 2, 3]),
)
@example(texts=[], stride=1, overlap=0, block=1)
def test_split_featurized_in_blocks_equals_one_featurizer_call(texts, stride, overlap, block):
    chunking = ChunkingConfig(capacity=stride + overlap, overlap=overlap)
    notes = [note_with(" ".join(words), f"n{i}") for i, words in enumerate(texts)]
    per_note = [chunk(tokenize(n.assembled_text, FI_FO_VOCAB).ids, chunking) for n in notes]
    want = chunks_to_csr([w for windows in per_note for w in windows], len(FI_FO_VOCAB))
    with mock.patch.object(training, "_BLOCK_WINDOWS", block):
        split = labeled_split(notes, [0] * len(notes), chunking, FI_FO_VOCAB)
    assert split.window_counts.tolist() == [len(windows) for windows in per_note]
    assert split.features.shape == want.shape == (sum(map(len, per_note)), len(FI_FO_VOCAB))
    for part in ("data", "indices", "indptr"):
        got, expected = getattr(split.features, part), getattr(want, part)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), part


def test_split_is_featurized_a_block_at_a_time():
    rng = random.Random(0)
    notes = [note_with("fi fo " * rng.randint(0, 120), f"n{i}") for i in range(60)]
    lengths = []

    def recording(chunks, vocab_size):
        lengths.append(len(chunks))
        return chunks_to_csr(chunks, vocab_size)

    with mock.patch.object(training, "chunks_to_csr", recording):
        split = labeled_split(
            notes, [0] * 60, ChunkingConfig(capacity=4, overlap=1), FI_FO_VOCAB
        )
    assert len(lengths) > 2 and sum(lengths) == split.features.shape[0]
    # pending windows are featurized once a block's worth is reached, so a
    # call holds less than one block plus its last note's windows
    assert max(lengths) < training._BLOCK_WINDOWS + split.window_counts.max()


TOY_VOCAB = build_vocabulary([("a b", True)], max_size=10)[0]  # "a" is id 4, "b" id 5
TOY_CHUNKING = ChunkingConfig(capacity=10, overlap=2)


def toy_separable(num_notes=4, labels=None):
    # class 0 notes use only token id 4, class 1 only id 5
    labels = [i % 2 for i in range(num_notes)] if labels is None else labels
    notes = [note_with(" ".join(["ab"[y % 2]] * 3), f"t{i}") for i, y in enumerate(labels)]
    return labeled_split(notes, labels, TOY_CHUNKING, TOY_VOCAB)


def test_separable_toy_reaches_perfect_auroc():
    items = toy_separable()
    config = TrainerConfig(learning_rate=0.5, weight_decay=0.0, max_epochs=200,
                           batch_size=2, accumulation_steps=1, warmup_steps=2)
    scorer, log = train_linear_scorer(items, items, linear(), config, 1)
    assert log.best_val_auroc == 1.0
    windows = [chunk([4 + y] * 3, TOY_CHUNKING)[0] for y in items.labels]
    train_scores = scorer.score_batch(windows)[:, 1]
    assert auc(train_scores, items.labels) == 1.0
    assert log.stopped_early  # plateau at 1.0 trips the patience window
    assert log.best_epoch <= len(log.epochs)
    assert scorer.best_val_auroc == max(e.val_auroc for e in log.epochs)


def test_empty_sets_rejected():
    items = toy_separable()
    config = TrainerConfig()
    with pytest.raises(DataError):
        train_linear_scorer(toy_separable(0), items, linear(), config, 0)
    with pytest.raises(DataError):
        train_linear_scorer(items, toy_separable(0), linear(), config, 0)
    with pytest.raises(DataError):
        train_linear_scorer(toy_separable(labels=[5]), items, linear(), config, 0)


def test_trainer_that_would_never_step_is_refused():
    items = toy_separable()  # 4 windows: 2 micro-batches of 2 an epoch, 6 in 3 epochs
    config = TrainerConfig(max_epochs=3, batch_size=2, accumulation_steps=7)
    with pytest.raises(ConfigError) as refused:
        train_linear_scorer(items, items, linear(), config, 0)
    assert str(refused.value) == (
        "4 training windows at batch_size 2 give 6 micro-batches in max_epochs 3,"
        " fewer than accumulation_steps 7: no optimizer step would run"
    )
    stepping = TrainerConfig(max_epochs=3, batch_size=2, accumulation_steps=6)
    _, log = train_linear_scorer(items, items, linear(), stepping, 0)
    assert log.total_optimizer_steps == 1


def test_identical_seeds_identical_checkpoints(tmp_path):
    items = toy_separable()
    config = TrainerConfig(learning_rate=0.3, max_epochs=20, batch_size=2,
                           accumulation_steps=2, warmup_steps=3)
    a, _ = train_linear_scorer(items, items, linear(), config, 7)
    b, _ = train_linear_scorer(items, items, linear(), config, 7)
    a.save(tmp_path / "a.json")
    b.save(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    c, _ = train_linear_scorer(items, items, linear(), config, 8)
    assert not np.array_equal(a.weights, c.weights)


def test_optimizer_step_count_matches_formula():
    config = TrainerConfig(learning_rate=1e-3, max_epochs=6, batch_size=3,
                           accumulation_steps=4, warmup_steps=2,
                           early_stop_patience=100, early_stop_delta=1e-12)
    # 20 notes, 20 chunks
    _, log = train_linear_scorer(toy_separable(20), toy_separable(4), linear(), config, 0)
    batches_per_epoch = math.ceil(20 / 3)
    assert log.total_optimizer_steps == batches_per_epoch * 6 // 4
    assert not log.stopped_early
    assert log.seen_note_ids == {f"t{i}" for i in range(20)}


def test_patience_counts_only_epochs_that_stepped():
    # 4 windows at batch_size 2: 2 micro-batches an epoch, so an optimizer
    # step every 5 lands in epochs 3, 5 and 8. Delta 2.0 makes every AUROC
    # after the first counted one a stall, so patience 2 stops at the third
    # epoch that stepped; counting step-less epochs would stop at epoch 3.
    config = TrainerConfig(max_epochs=20, batch_size=2, accumulation_steps=5,
                           early_stop_delta=2.0, early_stop_patience=2)
    _, log = train_linear_scorer(toy_separable(), toy_separable(), linear(), config, 0)
    assert log.stopped_early
    assert len(log.epochs) == 8
    assert log.total_optimizer_steps == 3


def test_best_weights_come_from_an_epoch_that_stepped():
    # 4 windows at batch_size 2: with a step every 7 micro-batches, the first
    # lands in epoch 4. Identical validation notes score an AUROC of 0.5
    # whatever the weights, so epoch 1 (the untrained initialization) would
    # otherwise stay the best.
    same = labeled_split([note_with("a a a", "v0"), note_with("a a a", "v1")],
                         [0, 1], TOY_CHUNKING, TOY_VOCAB)
    config = TrainerConfig(max_epochs=6, batch_size=2, accumulation_steps=7)
    scorer, log = train_linear_scorer(toy_separable(), same, linear(), config, 0)
    assert [e.val_auroc for e in log.epochs] == [0.5] * 6
    assert log.total_optimizer_steps == 1
    assert (log.best_epoch, log.best_val_auroc) == (4, 0.5)
    untrained = np.random.default_rng(child_seed(0, "init")).normal(
        scale=0.01, size=scorer.weights.shape)
    assert not np.array_equal(scorer.weights, untrained)


def oracle_train(train, validation, num_classes, config, seed):
    """The trainer with one row gather, one forward and one backward product
    per micro-batch: the reference the segment-batched trainer must match
    bit for bit. Returns the best weights, bias and the training log."""
    features = as_matrix(train.features)
    flat_labels = np.repeat(train.labels, train.window_counts)
    rng_init = np.random.default_rng(child_seed(seed, "init"))
    rng_shuffle = np.random.default_rng(child_seed(seed, "shuffle"))
    weights = rng_init.normal(scale=0.01, size=(num_classes, features.shape[1]))
    bias = np.zeros(num_classes)
    n = features.shape[0]
    total_steps = (math.ceil(n / config.batch_size) * config.max_epochs
                   // config.accumulation_steps)
    stopper = EarlyStopping(config.early_stop_delta, config.early_stop_patience)
    best = (-math.inf, 0, weights.copy(), bias.copy())
    epochs, stopped_early = [], False
    opt_step = micro_in_window = 0
    acc_w, acc_b = np.zeros_like(weights), np.zeros_like(bias)
    lr = 0.0
    for epoch in range(1, config.max_epochs + 1):
        order = rng_shuffle.permutation(n)
        losses = []
        steps_before = opt_step
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            x, y = features[idx], flat_labels[idx]
            batch = len(y)
            probs = softmax_rows(np.asarray(x @ weights.T + bias))
            picked = probs[np.arange(batch), y]
            loss = float(-np.log(np.clip(picked, 1e-300, None)).mean())
            if math.isnan(loss):
                raise NumericDivergenceError(f"loss became NaN at optimizer step {opt_step}")
            losses.append(loss)
            delta = probs
            delta[np.arange(batch), y] -= 1.0
            delta /= batch
            acc_w += np.asarray(delta.T @ x)
            acc_b += delta.sum(axis=0)
            micro_in_window += 1
            if micro_in_window == config.accumulation_steps:
                opt_step += 1
                lr = lr_schedule(opt_step, config.learning_rate,
                                 config.warmup_steps, total_steps)
                weights -= lr * (acc_w / config.accumulation_steps)
                weights -= lr * config.weight_decay * weights
                bias -= lr * (acc_b / config.accumulation_steps)
                acc_w[:] = 0.0
                acc_b[:] = 0.0
                micro_in_window = 0
        logits = as_matrix(validation.features) @ weights.T + bias
        window_probs = softmax_rows(np.asarray(logits))
        note_probs = pool_windows(window_probs, validation.window_counts)
        val_auroc = macro_auroc(note_probs, validation.labels, num_classes).macro_auc
        epochs.append(EpochStats(epoch, float(np.mean(losses)), val_auroc, lr))
        if opt_step == steps_before:  # a step-less epoch neither counts nor wins
            continue
        if val_auroc > best[0]:
            best = (val_auroc, epoch, weights.copy(), bias.copy())
        if stopper.update(val_auroc):
            stopped_early = True
            break
    log = TrainingLog(
        epochs=tuple(epochs),
        best_epoch=best[1],
        best_val_auroc=best[0],
        stopped_early=stopped_early,
        total_optimizer_steps=opt_step,
        seen_note_ids=frozenset(train.note_ids + validation.note_ids),
    )
    return best[2], best[3], log


def random_split(rng, window_counts, labels, vocab):
    rows = int(sum(window_counts))
    return TrainingSplit(
        note_ids=tuple(f"n{i}" for i in range(len(labels))),
        labels=np.asarray(labels, dtype=np.int64),
        window_counts=np.asarray(window_counts, dtype=np.int64),
        features=sparse.csr_matrix(rng.poisson(0.8, size=(rows, vocab)).astype(float)),
        vocab_sha256="v",
    )


@settings(max_examples=150, deadline=None)
@given(
    classes=st.integers(2, 4),
    window_counts=st.lists(st.integers(1, 4), min_size=1, max_size=10),
    batch_size=st.integers(1, 7),
    accumulation_steps=st.integers(1, 6),
    max_epochs=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([training._SEGMENT_CELLS, 1, 80]),
)
# 7 windows in batches of 3: a 1-row last batch, and optimizer steps every
# 2 of an epoch's 3 micro-batches, so accumulation crosses epoch ends.
@example(classes=2, window_counts=[3, 4], batch_size=3, accumulation_steps=2,
         max_epochs=4, seed=0, cells=training._SEGMENT_CELLS)
@example(classes=3, window_counts=[2, 2, 1, 4, 2], batch_size=2,
         accumulation_steps=4, max_epochs=5, seed=1, cells=80)
def test_segment_trainer_matches_per_micro_batch_oracle(
    classes, window_counts, batch_size, accumulation_steps, max_epochs, seed, cells
):
    # at least one optimizer step: fewer micro-batches than that is refused
    micro_batches = math.ceil(sum(window_counts) / batch_size) * max_epochs
    accumulation_steps = min(accumulation_steps, micro_batches)
    rng = np.random.default_rng(seed)
    vocab = 9
    train = random_split(
        rng, window_counts, rng.integers(0, classes, len(window_counts)), vocab
    )
    val_labels = np.arange(2 * classes) % classes
    validation = random_split(rng, [1, 2] * classes, val_labels, vocab)
    config = TrainerConfig(learning_rate=0.5, max_epochs=max_epochs,
                           batch_size=batch_size,
                           accumulation_steps=accumulation_steps,
                           warmup_steps=2, early_stop_patience=2)
    weights, bias, oracle_log = oracle_train(train, validation, classes, config, seed)
    with mock.patch.object(training, "_SEGMENT_CELLS", cells):
        scorer, log = train_linear_scorer(train, validation, linear(classes), config, seed)
    assert np.array_equal(scorer.weights, weights)
    assert np.array_equal(scorer.bias, bias)
    assert log == oracle_log


def test_segment_loss_and_grad_matches_one_call_per_micro_batch():
    rng = np.random.default_rng(5)
    for rows, size, classes in [(18, 18, 2), (40, 7, 3), (9, 4, 4), (5, 1, 2)]:
        features = sparse.csr_matrix(rng.poisson(1.0, size=(rows, 12)).astype(float))
        labels = rng.integers(0, classes, size=rows)
        weights = rng.normal(size=(classes, 12))
        bias = rng.normal(size=classes)
        losses, grads_w, grads_b = loss_and_grad(weights, bias, features, labels, size)
        starts = range(0, rows, size)
        assert grads_w.shape == (len(starts), classes, 12)
        for j, lo in enumerate(starts):
            part = labels[lo : lo + size]
            (loss,), (grad_w,), (grad_b,) = loss_and_grad(
                weights, bias, features[lo : lo + size], part, len(part)
            )
            assert losses[j] == loss
            assert np.array_equal(grads_w[j], grad_w)
            assert np.array_equal(grads_b[j], grad_b)


def test_validation_split_missing_a_class_is_reported_once(caplog):
    # 3 classes, validation notes of classes 0 and 1 only: macro AUROC skips
    # class 2 at each of the 6 epochs, and the trainer says so once
    rng = np.random.default_rng(8)
    train = random_split(rng, [2, 1, 3, 2, 1, 2], [0, 1, 2, 0, 1, 2], 9)
    validation = random_split(rng, [1, 2, 2, 1], [0, 1, 0, 1], 9)
    config = TrainerConfig(learning_rate=0.5, max_epochs=6, batch_size=3,
                           accumulation_steps=1, warmup_steps=2,
                           early_stop_patience=100)
    weights, bias, oracle_log = oracle_train(train, validation, 3, config, 0)
    caplog.clear()
    with caplog.at_level("WARNING"):
        scorer, log = train_linear_scorer(train, validation, linear(3), config, 0)
    assert len(log.epochs) == 6
    assert [r.getMessage() for r in caplog.records] == [
        "validation split holds no note of class 2; early stopping's macro AUROC"
        " skips it at every epoch"
    ]
    assert np.array_equal(scorer.weights, weights)
    assert np.array_equal(scorer.bias, bias)
    assert log == oracle_log


def test_loss_and_grad_refuses_features_of_another_shape():
    weights, bias = np.zeros((2, 9)), np.zeros(2)
    features = sparse.csr_matrix(np.ones((3, 8)))
    with pytest.raises(ContractError) as refused:
        loss_and_grad(weights, bias, features, np.array([0, 1, 0]), 2)
    assert str(refused.value) == (
        "features of shape (3, 8) for 3 labels and weights of shape (2, 9)"
    )


def test_row_gather_refuses_rows_past_its_buffers():
    # buffers for the 2 fullest rows hold 3 + 1 nonzeros; row 0 twice is 6
    features = sparse.csr_matrix(np.array([[1.0, 2.0, 3.0], [0, 4.0, 0], [5.0, 0, 0]]))
    gather = training._RowGather(features, 2)
    assert gather.take(np.array([2, 0], np.int32)).data.tolist() == [5.0, 1.0, 2.0, 3.0]
    with pytest.raises(ContractError) as refused:
        gather.take(np.array([0, 0], np.int32))
    assert str(refused.value) == "6 nonzeros do not fit a 4 buffer"


def with_index_dtypes(split, indptr_dtype, indices_dtype):
    features = split.features.copy()
    features.indptr = features.indptr.astype(indptr_dtype)
    features.indices = features.indices.astype(indices_dtype)
    return dataclasses.replace(split, features=features)


@pytest.mark.parametrize("indptr_dtype, indices_dtype", [
    (np.int64, np.int64),
    (np.int64, np.int32),
])
def test_index_dtypes_train_alike(indptr_dtype, indices_dtype):
    rng = np.random.default_rng(3)
    train = random_split(rng, [2, 3, 1, 4, 2, 3], [0, 1, 1, 0, 1, 0], 9)
    validation = random_split(rng, [1, 2, 1, 2], [0, 1, 0, 1], 9)
    wide = with_index_dtypes(train, indptr_dtype, indices_dtype)
    assert train.features.indptr.dtype == train.features.indices.dtype == np.int32
    assert (wide.features.indptr.dtype, wide.features.indices.dtype) == (
        indptr_dtype, indices_dtype
    )
    config = TrainerConfig(learning_rate=0.5, max_epochs=4, batch_size=3,
                           accumulation_steps=2, warmup_steps=2)
    narrow_scorer, narrow_log = train_linear_scorer(train, validation, linear(), config, 0)
    wide_scorer, wide_log = train_linear_scorer(wide, validation, linear(), config, 0)
    assert narrow_log.total_optimizer_steps > 0
    assert np.array_equal(wide_scorer.weights, narrow_scorer.weights)
    assert np.array_equal(wide_scorer.bias, narrow_scorer.bias)
    assert wide_log == narrow_log


def refused_before_any_kernel(train, validation):
    """The error ``train_linear_scorer`` raises, with scipy's kernels
    made unreachable: a refusal must come before any of them reads a column."""
    config = TrainerConfig(max_epochs=2, batch_size=2, accumulation_steps=1)
    unreachable = mock.Mock(side_effect=AssertionError("a kernel was reached"))
    with mock.patch.object(scoring, "sparse_kernels", unreachable), \
            mock.patch.object(training, "sparse_kernels", unreachable), \
            pytest.raises(ChunkfuseError) as refused:
        train_linear_scorer(train, validation, linear(), config, 0)
    return refused.value


def test_validation_split_over_another_vocabulary_is_refused():
    rng = np.random.default_rng(4)
    train = random_split(rng, [1, 2, 1], [0, 1, 0], 9)
    validation = random_split(rng, [1, 2], [0, 1], 9)
    other = refused_before_any_kernel(train, dataclasses.replace(validation, vocab_sha256="w"))
    assert type(other) is ContractError
    assert str(other) == "validation split is over vocabulary w, the training split over v"
    narrow = refused_before_any_kernel(train, random_split(rng, [1, 2], [0, 1], 8))
    assert type(narrow) is ContractError
    assert str(narrow) == "validation features are 8 columns wide, training features 9"


@pytest.mark.parametrize("labels, message", [
    ([1], "validation split of 1 note holds only class 1"),
    ([0, 0, 0], "validation split of 3 notes holds only class 0"),
])
def test_one_class_validation_split_is_refused(labels, message):
    rng = np.random.default_rng(6)
    train = random_split(rng, [1, 2, 1], [0, 1, 0], 9)
    refused = refused_before_any_kernel(train, random_split(rng, [2] * len(labels), labels, 9))
    assert type(refused) is DataError
    assert str(refused) == f"{message}: early stopping's macro AUROC needs two classes"


def test_nan_loss_raises_divergence_error():
    items = toy_separable()
    config = TrainerConfig(learning_rate=400.0, weight_decay=10.0, max_epochs=200,
                           batch_size=4, accumulation_steps=1, warmup_steps=1,
                           early_stop_patience=1000)
    with np.errstate(all="ignore"), pytest.raises(NumericDivergenceError) as expected:
        oracle_train(items, items, 2, config, 0)
    with np.errstate(all="ignore"), pytest.raises(NumericDivergenceError) as exc:
        train_linear_scorer(items, items, linear(), config, 0)
    assert str(exc.value) == str(expected.value)


def random_corpus(num_notes, rng, words):
    notes, labels = [], []
    for i in range(num_notes):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(30, 60)))
        notes.append(note_with(text, f"r{i}"))
        labels.append(rng.randint(0, 1))
    return notes, labels


def test_random_labels_score_near_chance():
    rng = random.Random(123)
    words = [f"w{i}" for i in range(100)]
    train_notes, train_labels = random_corpus(100, rng, words)
    val_notes, val_labels = random_corpus(200, rng, words)
    vocab, _ = build_vocabulary([(n.assembled_text, True) for n in train_notes], max_size=200)
    chunking = ChunkingConfig(capacity=20, overlap=5)
    train_items = labeled_split(train_notes, train_labels, chunking, vocab)
    val_items = labeled_split(val_notes, val_labels, chunking, vocab)
    for seed in range(5):
        config = TrainerConfig(learning_rate=0.05, max_epochs=10, batch_size=18,
                               accumulation_steps=2, warmup_steps=5)
        _, log = train_linear_scorer(train_items, val_items, linear(), config, seed)
        assert 0.4 <= log.best_val_auroc <= 0.6, (seed, log.best_val_auroc)
