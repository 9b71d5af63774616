import json
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from chunkfuse import scoring
from chunkfuse.chunker import Chunk, ChunkingConfig, chunk
from chunkfuse.errors import ConfigError, ContractError, ScorerError
from chunkfuse.scoring import (
    FIRST_TEXT_ID,
    LinearScorer,
    MockScorer,
    PatternScorer,
    ProbabilityVector,
    ScorerDescriptor,
    ScorerKind,
    TrainerConfig,
    chunks_to_csr,
    score_chunks,
    softmax_rows,
)


def window(ids):
    """A note's one window holding all of ``ids``."""
    return Chunk(start=0, end=len(ids), source=tuple(ids))


def test_probability_vector_validation():
    ProbabilityVector(probs=(0.25, 0.75))
    with pytest.raises(ContractError):
        ProbabilityVector(probs=())
    with pytest.raises(ContractError):
        ProbabilityVector(probs=(0.7, 0.7))
    with pytest.raises(ContractError):
        ProbabilityVector(probs=(1.2, -0.2))


def test_trainer_config_validation():
    TrainerConfig()
    with pytest.raises(ConfigError):
        TrainerConfig(learning_rate=0)
    with pytest.raises(ConfigError):
        TrainerConfig(early_stop_patience=0)
    with pytest.raises(ConfigError):
        TrainerConfig(weight_decay=-0.1)


def test_descriptor_needs_two_classes():
    with pytest.raises(ContractError):
        ScorerDescriptor(scorer_id="x", kind=ScorerKind.MOCK, num_classes=1)


def test_constant_mock_scores_every_window_alike():
    scorer = MockScorer.constant("m", (0.2, 0.8))
    windows = chunk(list(range(4, 30)), ChunkingConfig(capacity=10, overlap=2))
    assert len(windows) == 3
    assert score_chunks(scorer, windows).tolist() == [[0.2, 0.8]] * 3
    assert score_chunks(scorer, []).shape == (0, 2)


def test_mock_width_mismatch_rejected():
    scorer = MockScorer(
        descriptor=ScorerDescriptor(scorer_id="m", kind=ScorerKind.MOCK, num_classes=3),
        probs=(0.5, 0.5),
    )
    with pytest.raises(ScorerError, match="shape"):
        score_chunks(scorer, [window([4])])


def test_zero_weight_linear_is_uniform():
    scorer = LinearScorer(
        descriptor=ScorerDescriptor(scorer_id="lin", kind=ScorerKind.LINEAR, num_classes=4),
        weights=np.zeros((4, 20)),
        bias=np.zeros(4),
    )
    assert scorer.score_batch([window([4, 5, 6])]).tolist() == [[0.25] * 4]


def test_csr_counts_skip_reserved_ids():
    # UNK (id 1) counts for nothing
    counts = chunks_to_csr([window([4, 4, 7, 1])], vocab_size=10).toarray()
    assert counts.tolist() == [[0, 0, 0, 0, 2, 0, 0, 1, 0, 0]]
    with pytest.raises(ContractError):
        chunks_to_csr([window([12])], vocab_size=10)


def test_csr_matches_dense_counts():
    chunks = [window([4, 5, 5]), window([9, 1]), window([])]
    dense = np.zeros((3, 12))
    dense[0, 4], dense[0, 5], dense[1, 9] = 1, 2, 1
    assert np.array_equal(chunks_to_csr(chunks, 12).toarray(), dense)
    with pytest.raises(ContractError):
        chunks_to_csr([window([99])], 12)


def reference_csr(chunks, vocab_size):
    """The per-token dict count ``chunks_to_csr`` replaced, kept as its oracle.
    It counts the framed ids, as the featurizer did before it read only the
    content: the frame's reserved ids must count for nothing either way."""
    data, indices, indptr = [], [], [0]
    for c in chunks:
        row = {}
        for i in c.ids:
            if i >= vocab_size:
                raise ContractError(f"token id {i} outside vocabulary of {vocab_size}")
            if i >= FIRST_TEXT_ID:
                row[i] = row.get(i, 0.0) + 1.0
        cols = sorted(row)
        indices.extend(cols)
        data.extend(row[col] for col in cols)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(len(chunks), vocab_size),
    )


def assert_same_csr(got, want):
    """Element for element, with the same dtypes, and bit-equal logits."""
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    weights = np.random.default_rng(got.shape[1]).normal(size=(3, got.shape[1]))
    assert np.array_equal(got @ weights.T, want @ weights.T)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(4, 40),
    st.lists(st.lists(st.integers(0, 45), max_size=30), max_size=25),
    st.integers(1, 6),
)
def test_csr_matches_dict_count_oracle(vocab_size, windows, block):
    # ids up to 45 may pass the vocabulary: then both must name the same id
    chunks = [window(w) for w in windows]
    with patch.object(scoring, "_BLOCK_WINDOWS", block):
        try:
            want = reference_csr(chunks, vocab_size)
        except ContractError as err:
            with pytest.raises(ContractError) as raised:
                chunks_to_csr(chunks, vocab_size)
            assert str(raised.value) == str(err)
            return
        assert_same_csr(chunks_to_csr(chunks, vocab_size), want)


def test_csr_matches_oracle_across_full_blocks():
    rng = np.random.default_rng(0)
    chunks = [
        window(rng.integers(0, 50, size=rng.integers(0, 60)).tolist())
        for _ in range(2 * scoring._BLOCK_WINDOWS + 5)
    ]
    # empty, reserved ids only, and the last id of the vocabulary
    chunks += [window([]), window([1, 2, 3, 0]), window([49, 49, 4])]
    got = chunks_to_csr(chunks, 50)
    assert_same_csr(got, reference_csr(chunks, 50))
    assert got[-1, 49] == 2.0 and got[-2].nnz == 0 and got[-3].nnz == 0
    # the first id past the vocabulary in window order is the one named
    late = chunks + [window([4, 60, 70]), window([55])]
    with pytest.raises(ContractError, match="^token id 60 outside vocabulary of 50$"):
        chunks_to_csr(late, 50)


def test_csr_of_no_windows_is_empty():
    features = chunks_to_csr([], 9)
    assert features.shape == (0, 9) and features.nnz == 0
    assert_same_csr(features, reference_csr([], 9))


def test_softmax_rows_stable_and_normalized():
    rows = softmax_rows(np.array([[1000.0, 1000.0], [0.0, np.log(3.0)]]))
    assert rows[0] == pytest.approx([0.5, 0.5])
    assert rows[1] == pytest.approx([0.25, 0.75])


def test_linear_scores_match_manual_softmax():
    weights = np.array([[0.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 2.0]])
    scorer = LinearScorer(
        descriptor=ScorerDescriptor(scorer_id="l", kind=ScorerKind.LINEAR, num_classes=2),
        weights=weights,
        bias=np.array([0.1, -0.1]),
    )
    (got,) = scorer.score_batch([window([4, 4, 5])])
    logits = np.array([2 * 1.0 + 0.1, 1 * 2.0 - 0.1])
    want = np.exp(logits) / np.exp(logits).sum()
    assert got == pytest.approx(tuple(want), abs=1e-12)


def test_linear_batch_equals_single_scoring():
    rng = np.random.default_rng(4)
    scorer = LinearScorer(
        descriptor=ScorerDescriptor(scorer_id="l", kind=ScorerKind.LINEAR, num_classes=3),
        weights=rng.normal(size=(3, 15)),
        bias=rng.normal(size=3),
    )
    chunks = [window(list(rng.integers(4, 15, size=8))) for _ in range(5)]
    batched = score_chunks(scorer, chunks)
    assert batched.shape == (5, 3)
    for row, c in zip(batched, chunks):
        assert row == pytest.approx(scorer.score_batch([c])[0], abs=1e-12)


class FixedScorer:
    """Returns the same array whatever it is asked to score."""

    descriptor = ScorerDescriptor(scorer_id="fixed", kind=ScorerKind.MOCK, num_classes=2)

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=np.float64)

    def score_batch(self, chunks):
        return self.rows


@pytest.mark.parametrize("rows", [
    [[0.5, 0.5], [0.5, 0.5]],  # one row per chunk, not two
    [[0.2, 0.3, 0.5]],  # wider than the scorer's class count
    [[np.nan, np.nan]],
    [[np.inf, 0.0]],
    [[1.2, -0.2]],
    [[0.7, 0.7]],
    [[0.5, 0.5 + 2e-6]],  # sum just outside the 1e-6 band
])
def test_score_chunks_rejects_non_distributions(rows):
    with pytest.raises(ScorerError, match="'fixed'"):
        score_chunks(FixedScorer(rows), [window([4])])


def test_score_chunks_keeps_rows_inside_tolerance():
    rows = [[0.5, 0.5 + 5e-7], [-5e-10, 1.0]]
    got = score_chunks(FixedScorer(rows), [window([4]), window([5])])
    assert got.tolist() == rows


def test_nan_weight_is_caught_where_scores_leave_the_scorer():
    weights = np.zeros((2, 6))
    weights[1, 4] = np.nan
    scorer = LinearScorer(
        descriptor=ScorerDescriptor(scorer_id="lin", kind=ScorerKind.LINEAR, num_classes=2),
        weights=weights,
        bias=np.zeros(2),
    )
    with pytest.raises(ScorerError, match="'lin' scored row 1 "):
        score_chunks(scorer, [window([5]), window([4])])


def test_weight_shape_validation():
    with pytest.raises(ContractError):
        LinearScorer(
            descriptor=ScorerDescriptor(
                scorer_id="l", kind=ScorerKind.LINEAR, num_classes=3
            ),
            weights=np.zeros((2, 5)),
            bias=np.zeros(3),
        )


def test_pattern_scorer_detects_contiguous_sequence():
    scorer = PatternScorer.for_pattern("p", [7, 8, 9])
    got = scorer.score_batch(
        [window([4, 7, 8, 9, 5]), window([7, 8, 4, 9]), window([9, 8, 7])]
    )
    # whole, broken, reordered
    assert got.tolist() == [[0.1, 0.9], [0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ContractError):
        PatternScorer.for_pattern("p", [])


def test_pattern_scorer_overlap_rejoins_split_signal():
    # pattern sits across the first window edge; only the overlapping
    # geometry yields a window containing it whole
    ids = [4] * 8 + [7, 8, 9] + [4] * 9
    pattern = PatternScorer.for_pattern("p", [7, 8, 9])
    with_overlap = chunk(ids, ChunkingConfig(capacity=10, overlap=4))
    without = chunk(ids, ChunkingConfig(capacity=10, overlap=0))
    hit = [0.1, 0.9]
    assert hit in pattern.score_batch(with_overlap).tolist()
    assert hit not in pattern.score_batch(without).tolist()


def test_checkpoint_roundtrip_and_byte_stability(tmp_path):
    rng = np.random.default_rng(7)
    scorer = LinearScorer(
        descriptor=ScorerDescriptor(scorer_id="l0", kind=ScorerKind.LINEAR, num_classes=2),
        weights=rng.normal(size=(2, 9)),
        bias=rng.normal(size=2),
        trainer_config=TrainerConfig(seed=3),
        best_val_auroc=0.9125,
    )
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    scorer.save(first)
    loaded = scorer.load(first)
    assert np.array_equal(loaded.weights, scorer.weights)
    assert np.array_equal(loaded.bias, scorer.bias)
    assert loaded.trainer_config == scorer.trainer_config
    assert loaded.best_val_auroc == scorer.best_val_auroc
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()


def valid_checkpoint() -> dict:
    return {
        "vocab_size": 3, "num_classes": 2, "scorer_id": "l0",
        "weights": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], "bias": [0.1, -0.1],
        "trainer_config": dict(vars(TrainerConfig(seed=3))), "best_val_auroc": 0.75,
        "vocab_sha256": "ab" * 32,
    }


def with_doc(**changes) -> str:
    return json.dumps({**valid_checkpoint(), **changes})


def with_trainer(**changes) -> str:
    doc = valid_checkpoint()
    doc["trainer_config"].update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("text, match", [
    (None, "not found"),
    ("{not json", "not valid JSON"),
    (json.dumps({"num_classes": 2, "vocab_size": 3, "bias": [0.0, 0.0]}), "weights"),
    (
        json.dumps({"num_classes": 2, "vocab_size": 3, "weights": [0.0] * 5,
                    "bias": [0.0, 0.0]}),
        "reshape",
    ),
    pytest.param(with_trainer(max_epochs=2.5), "max_epochs must be a valid int",
                 id="float-max-epochs"),
    pytest.param(with_trainer(learning_rate="fast"), "learning_rate", id="str-rate"),
    pytest.param(with_doc(trainer_config=[1, 2]), "must be a JSON object",
                 id="list-trainer-config"),
    pytest.param(with_doc(weights=[10**400] + [0.0] * 5), "OverflowError",
                 id="huge-weight"),
    pytest.param(with_doc(bias=[0.0] * 3), "inconsistent with 2 classes", id="wide-bias"),
    pytest.param(with_doc(num_classes=1), "at least 2 classes", id="one-class"),
])
def test_malformed_checkpoint_is_config_error(tmp_path, text, match):
    path = tmp_path / "scorer.ckpt.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        LinearScorer.load(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -1, 0, 2.5, "0.5", math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_mutated_checkpoint_loads_or_is_config_error(tmp_path_factory, data):
    """Replace, delete or add one value anywhere in a valid checkpoint:
    load either succeeds with finite weights and bias or raises
    ConfigError, never anything else."""
    doc = valid_checkpoint()
    node = doc
    while True:  # walk down a random path, stopping at some container
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if not isinstance(child, (dict, list)) or data.draw(st.booleans()):
            break
        node = child
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        node[key] = data.draw(JSON_VALUES)
    elif action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=6))] = data.draw(JSON_VALUES)
    else:
        node.append(data.draw(JSON_VALUES))
    path = tmp_path_factory.mktemp("ckpt") / "scorer.ckpt.json"
    path.write_text(json.dumps(doc))
    try:
        scorer = LinearScorer.load(path)
    except ConfigError:
        return
    assert np.isfinite(scorer.weights).all() and np.isfinite(scorer.bias).all()


@pytest.mark.parametrize("field, index", [("weights", 4), ("bias", 1)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_checkpoint_is_refused_at_load(tmp_path, field, index, value):
    # Python's json reads NaN and Infinity; the scorer must not carry them
    # on to score_chunks, far from the file at fault
    doc = valid_checkpoint()
    doc[field][index] = value
    path = tmp_path / "scorer.ckpt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: .*non-finite"):
        LinearScorer.load(path)


@settings(max_examples=100)
@given(
    st.integers(2, 5),
    st.lists(st.integers(4, 30), min_size=0, max_size=40),
    st.integers(0, 2**31),
)
def test_linear_outputs_always_on_simplex(num_classes, ids, seed):
    rng = np.random.default_rng(seed)
    scorer = LinearScorer(
        descriptor=ScorerDescriptor(
            scorer_id="l", kind=ScorerKind.LINEAR, num_classes=num_classes
        ),
        weights=rng.normal(scale=5.0, size=(num_classes, 31)),
        bias=rng.normal(scale=5.0, size=num_classes),
    )
    probs = score_chunks(scorer, [window(ids)])  # raises off the simplex
    assert probs.shape == (1, num_classes)
