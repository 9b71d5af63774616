"""Traced run: one ``experiment.run_experiment`` call with timed wrappers.

``Tracer.installed()`` replaces, for the duration of one run, the public
functions the pipeline calls (the names ``chunkfuse.experiment`` imports
from corpus, tokenizer, chunker, training, scoring, remote and metrics,
plus ``chunks_to_csr`` as scoring and training call it) with wrappers
that record a span and the call's arguments and result. Nothing else of
the pipeline changes, so the traced run is ``run_experiment`` itself and
its report must match an untraced run's.

Work that is the benchmark's own runs after the traced run, outside its
total: the per-layer counts, ``coverage_check`` on every test note
(which the pipeline does not call), and the check that the public
``fusion`` functions reproduce the pipeline's own fusion.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import chunkfuse.experiment as experiment
import chunkfuse.scoring as scoring
import chunkfuse.training as training
from chunkfuse.chunker import coverage_check
from chunkfuse.metrics import RocReport, macro_auroc
from chunkfuse.remote import RemoteScorer
from chunkfuse.scoring import LinearScorer, PatternScorer, ScorerKind
from chunkfuse.tokenizer import UNK_ID

FIDELITY_TOLERANCE = 1e-12
PUBLIC_FUSION = ("FusionSpec", "PredictionMatrix", "ensemble_fuse", "weighted_fuse")

SCORE_SPANS = {
    ScorerKind.LINEAR: "scoring.score_s.linear",
    ScorerKind.PATTERN: "scoring.score_s.pattern",
    ScorerKind.REMOTE: "remote.score_s",
}


def _score_span(scorer, chunks):
    return SCORE_SPANS.get(scorer.descriptor.kind)


# (owner, attribute, span name, or a function of the call's arguments
# giving the span name). Absent attributes are left alone and reported.
WRAPPED = (
    (experiment, "generate_synthetic_corpus", "corpus.generate_s"),
    (experiment, "filter_for_task", "corpus.split_s"),
    (experiment, "split_dataset", "corpus.split_s"),
    (experiment, "build_vocabulary", "tokenizer.vocab_s"),
    (experiment, "tokenize", "tokenizer.tokenize_s"),
    (experiment, "chunk", "chunker.chunk_s"),
    (experiment, "build_labeled_chunks", "training.build_chunks_s"),
    (experiment, "train_linear_scorer", "training.train_s"),
    (LinearScorer, "load", "scoring.build_s"),
    (PatternScorer, "for_pattern", "scoring.build_s"),
    (RemoteScorer, "connect", "remote.connect_s"),
    (scoring, "chunks_to_csr", "scoring.featurize_s"),
    (training, "chunks_to_csr", "scoring.featurize_s"),
    (experiment, "score_chunks", _score_span),
    (experiment, "_note_probs", "fusion.fuse_s"),
    (experiment, "macro_auroc", "metrics.auroc_s"),
    (LinearScorer, "save", "experiment.emit_s"),
    (experiment, "emit_report", "experiment.emit_s"),
    (RocReport, "write_roc_csv", "experiment.emit_s"),
)

# Span names whose summed durations are reported as per-layer times.
TIMED = (
    "corpus.generate_s", "corpus.split_s", "tokenizer.vocab_s",
    "tokenizer.tokenize_s", "chunker.chunk_s", "training.build_chunks_s",
    "training.train_s", "scoring.build_s", "scoring.score_s.linear",
    "scoring.score_s.pattern", "remote.connect_s", "remote.score_s",
    "fusion.fuse_s", "metrics.auroc_s", "experiment.emit_s",
)


@dataclass
class Call:
    span: str
    start: float
    end: float
    args: tuple
    result: object
    raised: bool
    parent: str | None = None  # the wrapped call this one ran inside


class Tracer:
    """Spans and observed calls of one traced run."""

    def __init__(self) -> None:
        self.calls: list[Call] = []
        self.install_s: dict[str, float] = {}
        self.total_s = 0.0
        self._open = threading.local()  # names of the wrapped calls in progress

    def _wrap(self, fn, span):
        def traced(*args, **kwargs):
            name = span(*args, **kwargs) if callable(span) else span
            if name is None:
                return fn(*args, **kwargs)
            stack = getattr(self._open, "stack", None)
            if stack is None:
                stack = self._open.stack = []
            parent = stack[-1] if stack else None
            stack.append(name)
            start = time.perf_counter()
            result, raised = None, True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.calls.append(Call(name, start, end, args, result, raised, parent))

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED until the block ends."""
        originals = []
        try:
            for owner, attr, span in WRAPPED:
                start = time.perf_counter()
                raw = vars(owner).get(attr)
                if raw is None:
                    print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found;"
                          " its span stays empty", file=sys.stderr)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span))
                else:
                    wrapped = self._wrap(raw, span)
                originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                # A layer the run never calls reads this (a few µs), not 0.
                for name in SCORE_SPANS.values() if callable(span) else (span,):
                    self.install_s[name] = (
                        self.install_s.get(name, 0.0) + time.perf_counter() - start
                    )
            started = time.perf_counter()
            yield self
            self.total_s = time.perf_counter() - started
        finally:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

    def of(self, span: str) -> list[Call]:
        return [c for c in self.calls if c.span == span]

    def results(self, span: str) -> list:
        return [c.result for c in self.of(span) if not c.raised]

    def seconds(self, span: str) -> float:
        """The span's calls plus the installation of its wrappers."""
        return self.install_s.get(span, 0.0) + sum(c.end - c.start for c in self.of(span))

    def metrics(self, chunking) -> dict[str, float]:
        """Every per-layer metric of this run but ``trace.overhead_s``."""
        metrics = {name: self.seconds(name) for name in TIMED}
        notes = [n for result in self.results("corpus.generate_s") for n in result]
        sequences = [result.ids for result in self.results("tokenizer.tokenize_s")]
        windows = [w for result in self.results("chunker.chunk_s") for w in result]
        note_tokens = sum(map(len, sequences))
        featurized = self.of("scoring.featurize_s")
        trainer_featurize_s = sum(
            c.end - c.start for c in featurized if c.parent == "training.train_s"
        )
        epochs = sum(len(log.epochs) for _, log in self.results("training.train_s"))
        local = [c for c in self.calls if c.span in
                 ("scoring.score_s.linear", "scoring.score_s.pattern")]
        local_s = metrics["scoring.score_s.linear"] + metrics["scoring.score_s.pattern"]
        remote = self.of("remote.score_s")
        requests, request_bytes = _count_requests(remote)
        with self._timing("chunker.coverage_check_s"):
            for c in self.of("chunker.chunk_s"):
                if not c.raised:
                    coverage_check(c.args[0], c.result, chunking)
        metrics.update({
            "corpus.notes": len(notes),
            "corpus.tokens": sum(len(n.assembled_text.split()) for n in notes),
            "tokenizer.unk_rate": (
                sum(ids.count(UNK_ID) for ids in sequences) / max(note_tokens, 1)
            ),
            "chunker.coverage_check_s": self.seconds("chunker.coverage_check_s"),
            "chunker.windows": len(windows),
            "chunker.dup_factor": (
                sum(w.end - w.start for w in windows) / max(note_tokens, 1)
            ),
            "training.epochs": epochs,
            # The trainer featurizes its train and validation sets before
            # its first epoch; that is not epoch time.
            "training.epoch_s": (
                (metrics["training.train_s"] - trainer_featurize_s) / epochs
                if epochs else metrics["training.train_s"]
            ),
            "scoring.featurize_s": self.seconds("scoring.featurize_s"),
            "scoring.featurize_rows": sum(len(c.args[0]) for c in featurized),
            "scoring.windows_per_s": _rate(sum(len(c.args[1]) for c in local), local_s),
            "remote.chunks_per_s": _rate(
                sum(len(c.args[1]) for c in remote), metrics["remote.score_s"]
            ),
            "remote.requests": requests,
            "remote.request_bytes": request_bytes,
            "remote.errors": sum(
                c.raised for c in self.of("remote.connect_s") + remote
            ),
        })
        return metrics

    @contextmanager
    def _timing(self, span: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.calls.append(Call(span, start, time.perf_counter(), (), None, False))

    def fusion_problems(self) -> list[str]:
        """Rows whose macro AUROC through the public ``fusion`` functions
        differs from the pipeline's own by more than FIDELITY_TOLERANCE."""
        import chunkfuse.fusion as fusion

        missing = [n for n in PUBLIC_FUSION if not hasattr(fusion, n)]
        if missing:
            print(f"trace: public fusion check skipped: no {missing}", file=sys.stderr)
            return []
        scored = {id(c.args[0]): c for c in self.of("metrics.auroc_s")}
        problems = []
        for call in self.of("fusion.fuse_s"):
            method, ids, columns, weights = call.args
            auroc = scored.get(id(call.result))
            if auroc is None or auroc.raised:
                continue  # no AUROC for this row (e.g. undefined metric)
            _, labels, num_classes = auroc.args
            public = [_public_fuse(fusion, method, ids, columns, weights, i)
                      for i in range(len(call.result))]
            mine = macro_auroc(public, labels, num_classes).macro_auc
            theirs = auroc.result.macro_auc
            if not math.isclose(mine, theirs, rel_tol=0.0, abs_tol=FIDELITY_TOLERANCE):
                problems.append(
                    f"public fusion {method.value}/{'+'.join(ids)}: {mine!r} vs {theirs!r}"
                )
        return problems

    def spans_json(self) -> list[dict]:
        origin = min((c.start for c in self.calls), default=0.0)
        return [
            {"name": c.span, "parent": c.parent,
             "start_s": c.start - origin, "end_s": c.end - origin}
            for c in self.calls
        ]


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _vector(row) -> scoring.ProbabilityVector:
    return scoring.ProbabilityVector(tuple(map(float, row)))


def _public_fuse(fusion, method, ids, columns, weights, i):
    """Note ``i``'s fused probabilities for one report row, through the
    public fusion layer; ``columns`` is what ``_note_probs`` received."""
    Method = experiment.Method
    if method is Method.BASELINE:
        matrix = fusion.PredictionMatrix("", ((_vector(columns[ids[0]][i][0]),),))
        return fusion.weighted_fuse(matrix, fusion.FusionSpec(model_weights=(1.0,))).fused.probs
    if method is Method.ENSEMBLE:
        matrix = fusion.PredictionMatrix("", (tuple(_vector(columns[s][i][0]) for s in ids),))
        return fusion.ensemble_fuse(matrix).fused.probs
    if method is Method.AGGREGATION:
        matrix = fusion.PredictionMatrix("", tuple((_vector(r),) for r in columns[ids[0]][i]))
        return fusion.ensemble_fuse(matrix).fused.probs
    per_model = [[_vector(r) for r in columns[s][i]] for s in ids]
    matrix = fusion.PredictionMatrix("", tuple(zip(*per_model)))
    spec = fusion.FusionSpec(model_weights=tuple(weights[s] for s in ids))
    return fusion.weighted_fuse(matrix, spec).fused.probs


def _count_requests(remote_calls: list[Call]) -> tuple[int, int]:
    """/score requests and their JSON body bytes, computed from the batch
    size and the payload the client builds (not observed on the wire)."""
    requests = request_bytes = 0
    for call in remote_calls:
        scorer, chunks = call.args
        for lo in range(0, len(chunks), scorer.max_batch):
            payload = {
                "task": scorer.task,
                "num_classes": scorer.descriptor.num_classes,
                "chunks": [{"ids": list(c.ids)} for c in chunks[lo: lo + scorer.max_batch]],
            }
            requests += 1
            request_bytes += len(json.dumps(payload).encode())
    return requests, request_bytes


def fidelity_problems(traced, untraced) -> list[str]:
    """Rows whose macro AUROC differs from the untraced report by more
    than FIDELITY_TOLERANCE, or that differ in shape or errors."""
    problems = []
    if len(traced.rows) != len(untraced.rows):
        return [f"{len(traced.rows)} traced rows vs {len(untraced.rows)}"]
    for mine, theirs in zip(traced.rows, untraced.rows):
        label = f"{mine.method.value}/{'+'.join(mine.scorer_ids)}"
        if (mine.method, mine.scorer_ids) != (theirs.method, theirs.scorer_ids):
            problems.append(f"row {label} vs {theirs.method.value}")
        elif (mine.macro_auroc is None) != (theirs.macro_auroc is None):
            problems.append(f"row {label}: error {mine.error!r} vs {theirs.error!r}")
        elif mine.macro_auroc is not None and not math.isclose(
            mine.macro_auroc, theirs.macro_auroc, rel_tol=0.0, abs_tol=FIDELITY_TOLERANCE
        ):
            problems.append(f"row {label}: {mine.macro_auroc!r} vs {theirs.macro_auroc!r}")
    return problems
