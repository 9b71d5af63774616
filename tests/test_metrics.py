import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfuse.errors import (
    ContractError,
    DataError,
    DegenerateClassError,
    MetricUndefinedError,
)
from chunkfuse.metrics import RocReport, auc, format_percent, macro_auroc, roc_curve


def pairwise_auc(scores, labels):
    """Brute-force oracle: (concordant pairs + 0.5 * tied pairs) / (P * N)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    diff = pos[:, None] - neg[None, :]
    wins = (diff > 0).sum() + 0.5 * (diff == 0).sum()
    return wins / (len(pos) * len(neg))


def test_perfect_separation_curve():
    curve = roc_curve([0.9, 0.1], [1, 0])
    assert curve.dtype == np.float64
    assert curve.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


def test_perfect_inversion_curve():
    assert roc_curve([0.1, 0.9], [1, 0]).tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]


def test_canonical_four_point_curve_area():
    # positives {0.35, 0.8} vs negatives {0.1, 0.4}: 3 of 4 pairs concordant
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert auc(scores, labels) == pytest.approx(0.75, abs=1e-12)
    assert pairwise_auc(scores, labels) == 0.75


def test_perfect_separation_auc_is_one():
    assert auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_all_tied_scores_auc_is_half():
    assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == pytest.approx(0.5)


def test_single_class_raises_degenerate():
    with pytest.raises(DegenerateClassError, match="only class 1;"):
        roc_curve([0.2, 0.4], [1, 1])
    with pytest.raises(DegenerateClassError, match="only class 0;"):
        auc([0.2, 0.4], [0, 0])


def test_length_mismatch_rejected():
    with pytest.raises(ContractError):
        roc_curve([0.1, 0.2], [1])
    with pytest.raises(ContractError):
        roc_curve([], [])


score_label_sets = st.lists(
    st.tuples(
        st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.5, 1.0]),  # force heavy ties
        ),
        st.integers(0, 1),
    ),
    min_size=2,
    max_size=80,
).filter(lambda rows: len({y for _, y in rows}) == 2)


@settings(max_examples=300)
@given(score_label_sets)
def test_trapezoid_matches_pair_enumeration(rows):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    assert auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-9)


# multiples of 1/8 keep 3*x + 7 exact in binary floats, so ties survive the map
grid_sets = st.lists(
    st.tuples(st.integers(-800, 800).map(lambda k: k / 8.0), st.integers(0, 1)),
    min_size=2,
    max_size=80,
).filter(lambda rows: len({y for _, y in rows}) == 2)


@settings(max_examples=150)
@given(grid_sets)
def test_auc_invariant_under_increasing_transform(rows):
    scores = np.array([s for s, _ in rows])
    labels = [y for _, y in rows]
    transformed = 3.0 * scores + 7.0
    assert auc(scores, labels) == pytest.approx(auc(transformed, labels), abs=1e-12)


@settings(max_examples=150)
@given(score_label_sets)
def test_curve_endpoints_and_monotonicity(rows):
    curve = roc_curve([s for s, _ in rows], [y for _, y in rows])
    assert curve.shape[1] == 2
    assert curve[0].tolist() == [0.0, 0.0]
    assert curve[-1].tolist() == [1.0, 1.0]
    assert (np.diff(curve, axis=0) >= 0).all()


def test_complement_symmetry_without_ties():
    rng = np.random.default_rng(5)
    scores = rng.permutation(np.linspace(0, 1, 30))
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)


def test_binary_macro_equals_positive_class_auc():
    rng = np.random.default_rng(11)
    p1 = rng.random(40)
    vectors = np.column_stack([1 - p1, p1])
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    report = macro_auroc(vectors, labels, num_classes=2)
    assert report.macro_auc == pytest.approx(auc(p1, labels), abs=1e-12)


def test_one_hot_perfect_classifier():
    labels = [0, 1, 2, 3, 0, 1, 2, 3]
    vectors = np.eye(4)[labels]
    report = macro_auroc(vectors, labels, num_classes=4)
    assert report.macro_auc == 1.0
    assert report.per_class_auc == [1.0] * 4
    assert sorted(report.roc_points) == [0, 1, 2, 3]


def test_macro_matches_per_class_oracle():
    rng = np.random.default_rng(3)
    raw = rng.random((20, 4))
    vectors = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 4, 20)
    for c in range(4):
        labels[c] = c  # ensure every class occurs
    report = macro_auroc(vectors, labels, num_classes=4)
    expected = [pairwise_auc(vectors[:, c], (labels == c).astype(int)) for c in range(4)]
    for got, want in zip(report.per_class_auc, expected):
        assert got == pytest.approx(want, abs=1e-9)
    assert report.macro_auc == pytest.approx(np.mean(expected), abs=1e-9)
    assert min(expected) <= report.macro_auc <= max(expected)


def test_absent_class_skipped_with_nan(caplog):
    labels = [0, 1, 0, 1]  # classes 2 and 3 never occur
    rng = np.random.default_rng(0)
    raw = rng.random((4, 4))
    vectors = raw / raw.sum(axis=1, keepdims=True)
    with caplog.at_level("WARNING"):
        report = macro_auroc(vectors, labels, num_classes=4)
    assert [math.isnan(a) for a in report.per_class_auc] == [False, False, True, True]
    assert sorted(report.roc_points) == [0, 1]
    evaluated = [report.per_class_auc[0], report.per_class_auc[1]]
    assert report.macro_auc == pytest.approx(np.mean(evaluated))
    assert "skipped" in caplog.text


@pytest.mark.parametrize("vectors, labels, message", [
    (np.full((2, 3), 1 / 3), [0, 1], r"width 2, got shape \(2, 3\)"),
    (np.full((3, 2), 0.5), [0, 1], "3 probability rows but 2 labels"),
    (np.full((2, 2), 0.5), [0, 2], r"labels must lie in \[0, 2\)"),
    (np.full((2, 2), 0.5), [-1, 1], r"labels must lie in \[0, 2\)"),
])
def test_macro_auroc_refuses_mismatched_input(vectors, labels, message):
    with pytest.raises(ContractError, match=message):
        macro_auroc(vectors, labels, num_classes=2)


def test_all_classes_degenerate_is_undefined():
    vectors = np.full((3, 2), 0.5)
    with pytest.raises(MetricUndefinedError):
        macro_auroc(vectors, [1, 1, 1], num_classes=2)


def test_roc_csv_lists_the_curve(tmp_path):
    report = macro_auroc(
        np.array([[0.2, 0.8], [0.9, 0.1], [0.4, 0.6]]), [1, 0, 1], num_classes=2
    )
    path = tmp_path / "roc.csv"
    report.write_roc_csv(1, path)
    raw = path.read_bytes()
    assert raw.startswith(b"fpr,tpr\r\n") and raw.count(b"\n") == raw.count(b"\r\n")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) == len(report.roc_points[1]) + 1
    assert lines[1:] == [f"{x!r},{t!r}" for x, t in report.roc_points[1].tolist()]
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    with pytest.raises(DataError, match="cannot write ROC curve"):
        report.write_roc_csv(1, tmp_path / "absent" / "roc.csv")


def test_format_percent_two_decimals():
    assert format_percent(0.8452) == "84.52"
    assert format_percent(1.0) == "100.00"
    assert format_percent(0.5) == "50.00"
