import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfuse.chunker import ChunkingConfig, chunk
from chunkfuse.corpus import SECTION_ORDER, ClinicalNote
from chunkfuse.errors import ContractError
from chunkfuse.experiment import Method, _note_probs
from chunkfuse.fusion import FusionSpec, PredictionMatrix, ensemble_fuse, weighted_fuse
from chunkfuse.scoring import (
    MockScorer,
    ProbabilityVector,
    ScorerDescriptor,
    ScorerKind,
    score_chunks,
)
from chunkfuse.tokenizer import build_vocabulary, tokenize


def vec(*probs):
    return ProbabilityVector(probs=probs)


def matrix(rows, note_id="n"):
    return PredictionMatrix(
        note_id=note_id,
        entries=tuple(tuple(vec(*cell) for cell in row) for row in rows),
    )


def random_matrix(rng, chunks, models, classes):
    raw = rng.random((chunks, models, classes)) + 0.05
    raw /= raw.sum(axis=2, keepdims=True)
    return matrix([[tuple(cell) for cell in row] for row in raw])


def note_with(text, note_id="n1"):
    sections = {k: "" for k in SECTION_ORDER}
    sections["PI"] = text
    return ClinicalNote(note_id=note_id, sections=sections)


def pipeline_probs(method, note, scorers, vocab):
    """One note through the pipeline's own steps: tokenize, window, score
    each scorer once, then fuse with experiment._note_probs."""
    ids = tokenize(note.assembled_text, vocab).ids
    chunks = chunk(ids, ChunkingConfig())
    sids = [s.descriptor.scorer_id for s in scorers]
    columns = {sid: [score_chunks(s, chunks)] for sid, s in zip(sids, scorers)}
    weights = {sid: 1.0 / len(sids) for sid in sids}
    (probs,) = _note_probs(method, sids, columns, weights)
    return tuple(probs), len(chunks)


def mock(*probs):
    """A constant mock scorer over as many classes as ``probs`` holds."""
    return MockScorer(ScorerDescriptor("m", ScorerKind.MOCK, num_classes=len(probs)), probs)


class WindowTable:
    """A fake scorer giving window ``k`` (default geometry) the row ``rows[k]``."""

    def __init__(self, scorer_id, rows):
        self.descriptor = ScorerDescriptor(scorer_id, ScorerKind.MOCK, num_classes=2)
        self.rows = rows

    def score_batch(self, chunks):
        stride = ChunkingConfig().stride
        return np.array([self.rows[c.start // stride] for c in chunks])


def test_aggregate_is_elementwise_mean():
    out = ensemble_fuse(matrix([[(0.2, 0.8)], [(0.4, 0.6)], [(0.6, 0.4)]]))
    assert out.fused.probs == pytest.approx((0.4, 0.6), abs=1e-12)


def test_aggregate_single_identity_and_permutation():
    assert ensemble_fuse(matrix([[(0.3, 0.7)]])).fused.probs == (0.3, 0.7)
    rows = [[(0.1, 0.9)], [(0.5, 0.5)], [(0.9, 0.1)]]
    assert ensemble_fuse(matrix(rows)).fused.probs == pytest.approx(
        ensemble_fuse(matrix(rows[::-1])).fused.probs, abs=1e-12
    )


def test_aggregate_contract_errors():
    # aggregating zero chunks, or chunks of different widths, is refused
    with pytest.raises(ContractError):
        ensemble_fuse(PredictionMatrix(note_id="n", entries=()))
    with pytest.raises(ContractError):
        ensemble_fuse(matrix([[(0.5, 0.5)], [(0.2, 0.3, 0.5)]]))


def test_matrix_invariants():
    with pytest.raises(ContractError):
        PredictionMatrix(note_id="n", entries=())
    with pytest.raises(ContractError):
        matrix([[(0.5, 0.5), (0.5, 0.5)], [(1.0, 0.0)]])
    with pytest.raises(ContractError):
        matrix([[(0.5, 0.5)], [(0.2, 0.3, 0.5)]])


def test_fusion_spec_normalizes_weights():
    spec = FusionSpec(model_weights=(2.0, 2.0))
    assert spec.model_weights == (0.5, 0.5)
    with pytest.raises(ContractError):
        FusionSpec(model_weights=(1.0, -0.5))
    with pytest.raises(ContractError):
        FusionSpec(model_weights=())
    with pytest.raises(ContractError):
        FusionSpec(model_weights=(0.0, 0.0))


def test_weighted_midpoint_example():
    out = weighted_fuse(matrix([[(0.2, 0.8), (0.6, 0.4)]]), FusionSpec((0.5, 0.5)))
    assert out.fused.probs == pytest.approx((0.4, 0.6), abs=1e-12)
    assert out.num_chunks == 1


def test_one_hot_weights_reduce_to_single_model():
    rng = np.random.default_rng(1)
    m = random_matrix(rng, chunks=4, models=3, classes=2)
    out = weighted_fuse(m, FusionSpec((1.0, 0.0, 0.0)))
    column = PredictionMatrix(note_id="n", entries=tuple(row[:1] for row in m.entries))
    assert out.fused.probs == ensemble_fuse(column).fused.probs  # exact


def test_uniform_weights_equal_grand_mean():
    rng = np.random.default_rng(2)
    m = random_matrix(rng, chunks=2, models=2, classes=3)
    out = weighted_fuse(m, FusionSpec.uniform(2))
    grand = np.mean([v.probs for row in m.entries for v in row], axis=0)
    assert out.fused.probs == pytest.approx(tuple(grand), abs=1e-12)


def test_weight_count_mismatch():
    with pytest.raises(ContractError):
        weighted_fuse(matrix([[(0.5, 0.5)]]), FusionSpec((0.5, 0.5)))


def test_ensemble_single_model_reduces_to_aggregation():
    rng = np.random.default_rng(3)
    m = random_matrix(rng, chunks=5, models=1, classes=4)
    out = ensemble_fuse(m)
    column_mean = np.mean([row[0].probs for row in m.entries], axis=0)
    assert out.fused.probs == pytest.approx(tuple(column_mean), abs=1e-15)


def test_ensemble_idempotent_on_constant_matrix():
    m = matrix([[(0.3, 0.7)] * 3] * 4)
    out = ensemble_fuse(m)
    assert out.fused.probs == pytest.approx((0.3, 0.7), abs=1e-15)
    assert out.num_chunks == 4


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(2, 4), st.integers(0, 2**31))
def test_ensemble_equals_uniform_weighted(chunks, models, classes, seed):
    m = random_matrix(np.random.default_rng(seed), chunks, models, classes)
    a = ensemble_fuse(m).fused.probs
    b = weighted_fuse(m, FusionSpec.uniform(models)).fused.probs
    assert a == pytest.approx(b, abs=1e-12)


def test_ensemble_permutation_invariance():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, chunks=4, models=3, classes=2)
    chunk_perm = PredictionMatrix(note_id="n", entries=m.entries[::-1])
    model_perm = PredictionMatrix(
        note_id="n", entries=tuple(row[::-1] for row in m.entries)
    )
    base = ensemble_fuse(m).fused.probs
    assert ensemble_fuse(chunk_perm).fused.probs == pytest.approx(base, abs=1e-12)
    assert ensemble_fuse(model_perm).fused.probs == pytest.approx(base, abs=1e-12)


def test_blending_is_affine_in_weight():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, chunks=3, models=2, classes=2)
    at = {
        w: weighted_fuse(m, FusionSpec((w, 1.0 - w))).fused.probs
        for w in (0.0, 0.5, 1.0)
    }
    mid = tuple((a + b) / 2 for a, b in zip(at[0.0], at[1.0]))
    assert at[0.5] == pytest.approx(mid, abs=1e-12)


def test_predict_short_note_single_scorer():
    vocab = build_vocabulary([("alpha beta", True)], max_size=10)[0]
    note = note_with("alpha beta alpha")
    probs, num_chunks = pipeline_probs(
        Method.AGGREGATION, note, [mock(0.3, 0.7)], vocab
    )
    assert probs == (0.3, 0.7)
    assert num_chunks == 1


def test_predict_three_chunk_note_averages_mock_table():
    vocab = build_vocabulary([("fi", True)], max_size=5)[0]
    note = note_with(" ".join(["fi"] * 1000))
    scorer = WindowTable("m", [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    probs, num_chunks = pipeline_probs(Method.AGGREGATION, note, [scorer], vocab)
    assert num_chunks == 3
    assert probs == pytest.approx((2 / 3, 1 / 3), abs=1e-12)


def test_duplicate_scorers_change_nothing():
    vocab = build_vocabulary([("fi", True)], max_size=5)[0]
    note = note_with(" ".join(["fi"] * 700))
    rows = [(0.2, 0.8), (0.6, 0.4)]
    solo = [WindowTable("a", rows)]
    duo = [WindowTable("a", rows), WindowTable("b", rows)]
    for single, fused in (
        (Method.AGGREGATION, Method.ENSEMBLE_AGGREGATION),
        (Method.BASELINE, Method.ENSEMBLE),
    ):
        want, _ = pipeline_probs(single, note, solo, vocab)
        got, _ = pipeline_probs(fused, note, duo, vocab)
        assert got == pytest.approx(want, abs=1e-12)


def test_truncation_matches_full_pipeline_on_short_note():
    vocab = build_vocabulary([("alpha", True)], max_size=5)[0]
    note = note_with("alpha alpha")
    scorer = [mock(0.4, 0.6)]
    full, _ = pipeline_probs(Method.AGGREGATION, note, scorer, vocab)
    base, num_chunks = pipeline_probs(Method.BASELINE, note, scorer, vocab)
    assert base == full
    assert num_chunks == 1


def test_truncation_sees_only_first_chunk():
    vocab = build_vocabulary([("fi", True)], max_size=5)[0]
    note = note_with(" ".join(["fi"] * 1000))
    scorer = WindowTable("m", [(0.9, 0.1), (0.0, 1.0), (0.0, 1.0)])
    probs, num_chunks = pipeline_probs(Method.BASELINE, note, [scorer], vocab)
    assert probs == (0.9, 0.1)
    assert num_chunks == 3  # the later windows exist but are not used


def test_truncation_on_empty_note():
    vocab = build_vocabulary([("x", True)], max_size=5)[0]
    probs, num_chunks = pipeline_probs(
        Method.BASELINE, note_with(""), [mock(0.5, 0.5)], vocab
    )
    assert probs == (0.5, 0.5)
    assert num_chunks == 1
