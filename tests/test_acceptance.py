"""Acceptance gate: eight end-to-end criteria at stated tolerances.

Each test ends with one PASS line carrying the measured numbers; run
``pytest tests/test_acceptance.py -v -s`` to see them. A3 and A4 run the
claim scripts under ``scripts/`` across five seeds each, so this file
dominates the suite's runtime.
"""

import importlib.util
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from chunkfuse.chunker import Chunk, ChunkingConfig, chunk, coverage_check
from chunkfuse.corpus import (
    SECTION_ORDER,
    ClinicalNote,
    GeneratorConfig,
    TaskKind,
    generate_synthetic_corpus,
    split_dataset,
)
from chunkfuse.errors import ProtocolError
from chunkfuse.experiment import Method, _note_probs
from chunkfuse.fusion import (
    FusionSpec,
    PredictionMatrix,
    ensemble_fuse,
    weighted_fuse,
)
from chunkfuse.metrics import auc
from chunkfuse.remote import RemoteScorer, StubScorerServer
from chunkfuse.scoring import ProbabilityVector, ScorerDescriptor, ScorerKind, TrainerConfig
from chunkfuse.tokenizer import build_vocabulary
from chunkfuse.training import (
    EarlyStopping,
    build_labeled_chunks,
    loss_and_grad,
    train_linear_scorer,
)


def test_a1_chunker_random_triples_and_canonical_spans():
    started = time.perf_counter()
    rng = random.Random(20260819)
    for _ in range(10_000):
        m = rng.randint(0, 3000)
        capacity = rng.randint(64, 512)
        overlap = rng.randint(0, capacity - 1)
        config = ChunkingConfig(capacity=capacity, overlap=overlap)
        ids = list(range(4, 4 + m))  # distinct ids make span checks strict
        chunks = chunk(ids, config)
        coverage_check(ids, chunks, config)
        expected = (
            1 if m <= capacity else math.ceil((m - capacity) / config.stride) + 1
        )
        assert len(chunks) == expected, (m, capacity, overlap)

    spans = [(c.start, c.end) for c in chunk(list(range(4, 1004)), ChunkingConfig())]
    assert spans == [(0, 510), (460, 970), (920, 1000)]

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nA1 PASS: 10000 random triples covered, overlap-exact, count-exact;"
        f" 1000/510/50 spans verified; {elapsed:.1f}s < 10s"
    )


def test_a2_fusion_algebra_on_random_matrices():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_gap = 0.0
    for i in range(1_000):
        num_chunks = int(rng.integers(1, 21))
        num_models = int(rng.integers(1, 7))
        num_classes = int(rng.integers(2, 6))
        draws = rng.dirichlet(np.ones(num_classes), size=(num_chunks, num_models))
        matrix = PredictionMatrix(
            note_id=f"m{i}",
            entries=tuple(
                tuple(
                    ProbabilityVector(probs=tuple(draws[a, b]))
                    for b in range(num_models)
                )
                for a in range(num_chunks)
            ),
        )

        uniform = weighted_fuse(matrix, FusionSpec.uniform(num_models))
        ensembled = ensemble_fuse(matrix)
        gap = max(
            abs(x - y) for x, y in zip(uniform.fused.probs, ensembled.fused.probs)
        )
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-12

        pick = int(rng.integers(0, num_models))
        one_hot = FusionSpec(
            model_weights=tuple(
                1.0 if j == pick else 0.0 for j in range(num_models)
            )
        )
        column = PredictionMatrix(
            note_id=f"m{i}", entries=tuple((row[pick],) for row in matrix.entries)
        )
        single = ensemble_fuse(column).fused
        assert weighted_fuse(matrix, one_hot).fused.probs == single.probs

        for fused in (uniform.fused, ensembled.fused):
            assert min(fused.probs) >= 0.0
            assert abs(sum(fused.probs) - 1.0) <= 1e-9

        # The pipeline's kernel on the same note obeys the same algebra.
        ids = [f"s{b}" for b in range(num_models)]
        columns = {sid: [draws[:, b]] for b, sid in enumerate(ids)}
        (kernel,) = _note_probs(
            Method.ENSEMBLE_AGGREGATION, ids, columns, dict.fromkeys(ids, 1.0)
        )
        gap = np.abs(kernel - ensembled.fused.probs).max()
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-12
        one_hot_weights = {sid: float(j == pick) for j, sid in enumerate(ids)}
        (kernel_one_hot,) = _note_probs(
            Method.ENSEMBLE_AGGREGATION, ids, columns, one_hot_weights
        )
        (kernel_single,) = _note_probs(
            Method.AGGREGATION, [ids[pick]], columns, one_hot_weights
        )
        assert np.array_equal(kernel_one_hot, kernel_single)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"\nA2 PASS: 1000 matrices; ensemble==uniform==kernel within {worst_gap:.2e}"
        f" (<=1e-12); one-hot exact; outputs simplex-valid; {elapsed:.1f}s < 5s"
    )


def _run_script(name: str, tmp_path, capsys):
    """Run ``scripts/<name>.py``, the claim's one definition, at its defaults
    (5 seeds of its shipped config); return the module, its indented
    stdout and the seconds it took."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    started = time.perf_counter()
    code = script.main(["--output-dir", str(tmp_path)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0, out
    assert elapsed < 600.0
    return script, out.rstrip().replace("\n", "\n  "), elapsed


def test_a3_aggregation_beats_truncation_and_ensembling_loses_nothing(tmp_path, capsys):
    script, seeds, elapsed = _run_script("run_ordering_experiment", tmp_path, capsys)
    assert (script.MIN_GAP, script.ENSEMBLE_SLACK, script.PASS_PERCENT) == (0.10, 0.01, 80)
    with capsys.disabled():
        print(f"\nA3 PASS: ordering (Aggregation >= Baseline+0.10, EnsembleAggregation"
              f" >= best-0.01); {elapsed:.0f}s < 600s\n  {seeds}")


def test_a4_overlap_recovers_boundary_straddling_signal(tmp_path, capsys):
    script, seeds, elapsed = _run_script("run_overlap_experiment", tmp_path, capsys)
    assert script.PASS_PERCENT == 80
    with capsys.disabled():
        print(f"\nA4 PASS: overlap-50 aggregation >= overlap-0 on 60-token straddling"
              f" signal; {elapsed:.0f}s < 600s\n  {seeds}")


def _pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    wins = (diff > 0).sum() + 0.5 * (diff == 0).sum()
    return float(wins) / (len(pos) * len(neg))


def test_a5_trapezoid_auc_matches_pair_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    tie_pool = np.array([0.0, 0.1, 0.25, 0.5, 0.9])
    checked = 0
    worst = 0.0
    while checked < 10_000:
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        if rng.random() < 0.5:
            scores = rng.normal(size=n)
        else:
            scores = rng.choice(tie_pool, size=n)  # heavy ties
        gap = abs(auc(scores, labels) - _pairwise_auc(scores, labels))
        worst = max(worst, gap)
        assert gap <= 1e-9
        checked += 1

    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nA5 PASS: 10000 score/label sets within {worst:.2e} (<=1e-9) of the"
        f" pair oracle; canonical case == 0.75; {elapsed:.1f}s < 30s"
    )


def test_a6_trainer_gradients_early_stop_and_determinism(tmp_path):
    # Analytic gradient vs central finite differences, 1e-4 relative.
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(20):
        vocab = int(rng.integers(6, 16))
        classes = int(rng.integers(2, 5))
        batch = int(rng.integers(1, 9))
        features = sparse.csr_matrix(
            rng.integers(0, 4, size=(batch, vocab)).astype(float)
        )
        labels = rng.integers(0, classes, size=batch)
        weights = rng.normal(scale=0.5, size=(classes, vocab))
        bias = rng.normal(scale=0.5, size=classes)
        # One micro-batch of every row: entry 0 of each result.
        _, (grad_w,), (grad_b,) = loss_and_grad(
            weights, bias, features, labels, len(labels)
        )

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
        for i in range(classes):
            numeric = (loss_at(weights, bias + _unit(classes, i, h))
                       - loss_at(weights, bias - _unit(classes, i, h))) / (2 * h)
            scale = max(abs(numeric), abs(grad_b[i]), 1e-8)
            assert abs(numeric - grad_b[i]) / scale < 1e-4

    # Early stop fires exactly after 3 consecutive sub-0.0001 epochs.
    defaults = TrainerConfig()
    assert (defaults.early_stop_delta, defaults.early_stop_patience) == (0.0001, 3)
    stopper = EarlyStopping(defaults.early_stop_delta, defaults.early_stop_patience)
    values = [0.5, 0.6, 0.7, 0.70005, 0.70009, 0.700099]
    assert [stopper.update(v) for v in values] == [
        False, False, False, False, False, True,
    ]

    # Identical seeds yield bit-identical checkpoints of a trained model;
    # another seed yields other weights.
    notes = list(generate_synthetic_corpus(
        GeneratorConfig(num_docs=40, min_tokens=60, max_tokens=100), seed=9
    ))
    labels = [n.mortality_label for n in notes]
    ids = [n.note_id for n in notes]
    vocab, sequences = build_vocabulary(
        [(n.assembled_text, i < 30) for i, n in enumerate(notes)], 300, keep_ids=True
    )
    chunking = ChunkingConfig()
    train_items = build_labeled_chunks(ids[:30], sequences[:30], labels[:30], chunking, vocab)
    val_items = build_labeled_chunks(ids[30:], sequences[30:], labels[30:], chunking, vocab)
    config = TrainerConfig(max_epochs=4, accumulation_steps=1, warmup_steps=2)
    descriptor = ScorerDescriptor("det", ScorerKind.LINEAR, 2)
    paths, weights = [], []
    for run, seed in (("one", 123), ("two", 123), ("other", 124)):
        scorer, log = train_linear_scorer(train_items, val_items, descriptor, config, seed)
        assert log.total_optimizer_steps > 0
        path = tmp_path / f"ckpt_{run}.json"
        scorer.save(path)
        paths.append(path)
        weights.append(scorer.weights)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert not np.array_equal(weights[0], weights[2])

    print(
        "\nA6 PASS: gradients within 1e-4 of central differences on 20 random"
        " instances; early stop fires exactly at patience 3 / delta 1e-4;"
        " repeated training is checkpoint-bit-identical"
    )


def _unit(n: int, i: int, h: float) -> np.ndarray:
    vec = np.zeros(n)
    vec[i] = h
    return vec


def test_a7_los_bins_and_split_apportionment():
    empty = {k: "" for k in SECTION_ORDER}
    for step in range(61):
        days = step * 0.5
        expected = 0 if days <= 3 else 1 if days <= 7 else 2 if days <= 14 else 3
        note = ClinicalNote(note_id="n", sections=empty, los_days=days)
        assert TaskKind.LENGTH_OF_STAY.label(note) == expected, days

    total = 48_684
    wanted = (33_954, 4_908, 9_822)
    ids = [f"n{i}" for i in range(total)]
    split = split_dataset(ids, tuple(w / total for w in wanted), seed=0)
    sizes = tuple(map(len, (split.train, split.validation, split.test)))
    assert sum(sizes) == total
    assert all(abs(got - want) <= 1 for got, want in zip(sizes, wanted)), sizes
    assert set(split.train) | set(split.validation) | set(split.test) == set(ids)

    print(
        f"\nA7 PASS: stay-length bins match on 0-30d sweep (0.5d steps);"
        f" split of {total} ids gave {sizes} vs {wanted} (within +-1)"
    )


def remote_at(endpoint: str) -> ScorerDescriptor:
    return ScorerDescriptor("remote", ScorerKind.REMOTE, 2, {"endpoint": endpoint})


def test_a8_remote_protocol_round_trip_and_error_paths(caplog):
    def score_fn(ids):
        x = (sum(ids) % 97) / 97.0 * 0.8 + 0.1
        return [x, 1.0 - x]

    def make_chunk(rng) -> Chunk:
        content = tuple(rng.randint(4, 300) for _ in range(rng.randint(1, 40)))
        return Chunk(start=0, end=len(content), source=content)

    rng = random.Random(8)
    chunks = [make_chunk(rng) for _ in range(1_000)]
    with StubScorerServer(num_classes=2, max_batch=64, score_fn=score_fn) as server:
        scorer = RemoteScorer.connect(remote_at(server.endpoint), "mortality")
        vectors = scorer.score_batch(chunks)
        assert len(vectors) == 1_000
        for ch, vec in zip(chunks, vectors):
            assert vec == pytest.approx(score_fn(list(ch.ids)), abs=1e-12)
        batches = sorted(server.batch_sizes)
        assert max(batches) <= 64

    probe = chunks[0]

    def constant_reply(rows):
        return lambda req: (200, {"scores": rows})

    with StubScorerServer(respond=constant_reply([[0.5, 0.5]])) as server:
        scorer = RemoteScorer.connect(remote_at(server.endpoint), "mortality")
        with pytest.raises(ProtocolError, match="1 score rows for 2 chunks"):
            scorer.score_batch(chunks[:2])  # one row short

    with StubScorerServer(respond=constant_reply([[0.7, 0.31]])) as server:
        scorer = RemoteScorer.connect(remote_at(server.endpoint), "mortality")
        with pytest.raises(ProtocolError):  # deviation 0.01, far past the band
            scorer.score_batch([probe])

    with StubScorerServer(respond=constant_reply([[0.50011, 0.5]])) as server:
        scorer = RemoteScorer.connect(remote_at(server.endpoint), "mortality")
        with pytest.raises(ProtocolError):  # 1.1e-4 is just outside the band
            scorer.score_batch([probe])

    with StubScorerServer(respond=constant_reply([[0.50004, 0.5]])) as server:
        scorer = RemoteScorer.connect(remote_at(server.endpoint), "mortality")
        with caplog.at_level("WARNING"):
            (vec,) = scorer.score_batch([probe])  # 4e-5 is inside the band
        assert abs(sum(vec) - 1.0) < 1e-12
        assert any("renormalizing" in r.message for r in caplog.records)

    print(
        "\nA8 PASS: 1000-chunk batch round-trips order-preserving under"
        " max_batch 64; short reply and simplex violations raise ProtocolError;"
        " renormalization fires only inside the 1e-4 band"
    )
