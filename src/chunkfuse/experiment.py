"""Experiment grid: prepare data, train scorers, compare methods.

Four evaluation methods over one test split:

- baseline: first window only, one row per scorer
- ensemble: first window, scorers averaged
- aggregation: all windows averaged, one row per scorer
- ensemble_aggregation: all windows, all scorers fused

A scorer that fails to build or score turns the rows that need it into
error rows; every other row is still computed. Reports from local
scorers are byte-identical across reruns of the same config and seed, so
wall-clock time is kept out of report.json and shown only in the
markdown rendering.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .chunker import Chunk, ChunkingConfig, chunk, coverage_check
from .corpus import (
    ClinicalNote,
    CsvSchema,
    GeneratorConfig,
    TaskKind,
    check_split_ratios,
    filter_for_task,
    generate_synthetic_corpus,
    ingest_csv,
    signal_pattern,
    split_dataset,
)
from .errors import (
    ChunkfuseError,
    ConfigError,
    ContractError,
    DataError,
    MetricUndefinedError,
    as_object,
    build_block,
    config_block,
    from_json,
    make_dir,
    write_text,
)
from .fusion import FusionSpec
from .metrics import RocReport, format_percent, macro_auroc
from .remote import RemoteScorer
from .scoring import (
    ChunkScorer,
    LinearScorer,
    MockScorer,
    PatternScorer,
    ScorerDescriptor,
    ScorerKind,
    TrainerConfig,
    parse_probs,
    pool_windows,
    score_chunks,
)
from .seeds import child_seed
from .tokenizer import FIRST_TEXT_ID, Vocabulary, build_vocabulary, normalize, tokenize
from .training import TrainingSplit, build_labeled_chunks, train_linear_scorer

logger = logging.getLogger(__name__)


class Method(Enum):
    BASELINE = "baseline"
    ENSEMBLE = "ensemble"
    AGGREGATION = "aggregation"
    ENSEMBLE_AGGREGATION = "ensemble_aggregation"


METHOD_LABELS = {
    Method.BASELINE: "Baseline",
    Method.ENSEMBLE: "Ensemble",
    Method.AGGREGATION: "Aggregation",
    Method.ENSEMBLE_AGGREGATION: "Ensemble + Aggregation",
}


# Each trained scorer's seed derives from the top-level one.
TRAINER_SEED_UNREAD = "trainer.seed is not read; set the top-level seed"


@config_block
class CsvSource:
    path: str
    schema: CsvSchema


@config_block
class ExperimentConfig:
    task: TaskKind
    data: GeneratorConfig | CsvSource
    scorers: tuple[ScorerDescriptor, ...]
    methods: tuple[Method, ...]
    output_dir: str
    chunking: ChunkingConfig = ChunkingConfig()
    fusion: FusionSpec | None = None
    trainer: TrainerConfig = TrainerConfig()
    split_ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    vocab_size: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("at least one method is required")
        if not self.scorers:
            raise ConfigError("at least one scorer is required")
        ids = [s.scorer_id for s in self.scorers]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate scorer ids: {ids}")
        ensemble_methods = {Method.ENSEMBLE, Method.ENSEMBLE_AGGREGATION}
        if ensemble_methods & set(self.methods) and len(self.scorers) < 2:
            raise ConfigError("ensemble methods require at least 2 scorers")
        if any(s.num_classes != self.task.num_classes for s in self.scorers):
            raise ConfigError("scorer class counts must match the task")
        if self.trainer.seed != 0:
            raise ConfigError(TRAINER_SEED_UNREAD)
        check_split_ratios(self.split_ratios)
        if self.vocab_size < FIRST_TEXT_ID:  # the reserved ids alone fill that many
            raise ConfigError(f"vocab_size must be at least {FIRST_TEXT_ID}, got {self.vocab_size}")
        if self.fusion is None:
            object.__setattr__(self, "fusion", FusionSpec.uniform(len(self.scorers)))
        elif len(self.fusion.model_weights) != len(self.scorers):
            raise ConfigError(
                f"{len(self.fusion.model_weights)} fusion weights for"
                f" {len(self.scorers)} scorers"
            )

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from its JSON form with ``build_block``, after the
        steps the field types cannot say: ``data.kind`` picks the source
        block, each scorer entry gets the task's class count, and a
        ``trainer.seed`` is refused (each trained scorer's seed derives from
        the top-level one)."""
        doc = as_object(doc, "config root")
        data = as_object(doc.get("data"), "data")
        kind = data.pop("kind", None)
        if kind not in ("synthetic", "csv"):
            raise ConfigError(f"data.kind must be 'synthetic' or 'csv', got {kind!r}")
        source = GeneratorConfig if kind == "synthetic" else CsvSource
        doc["data"] = build_block("data", source, data)
        if isinstance(doc.get("scorers"), list):
            classes = from_json("task", TaskKind, doc.get("task")).num_classes
            doc["scorers"] = [
                dict(as_object(entry, "scorer entry"), num_classes=classes)
                for entry in doc["scorers"]
            ]
        if "seed" in as_object(doc.get("trainer", {}), "trainer"):
            raise ConfigError(TRAINER_SEED_UNREAD)
        return build_block("config", cls, doc)


@dataclass(frozen=True)
class ReportRow:
    method: Method
    scorer_ids: tuple[str, ...]
    with_overlap: bool
    roc: RocReport | None = field(default=None, repr=False)
    error: str | None = None
    error_code: int | None = None

    @property
    def macro_auroc(self) -> float | None:
        return None if self.roc is None else self.roc.macro_auc

    def to_json_dict(self) -> dict:
        return {
            "method": self.method.value,
            "scorers": list(self.scorer_ids),
            "with_overlap": self.with_overlap,
            "macro_auroc": self.macro_auroc,
            "macro_auroc_percent": (
                None if self.macro_auroc is None else format_percent(self.macro_auroc)
            ),
            "per_class_auc": (
                None
                if self.roc is None
                else [None if np.isnan(a) else a for a in self.roc.per_class_auc]
            ),
            "error": self.error,
        }


@dataclass(frozen=True)
class ComparisonReport:
    task: str
    seed: int
    sizes: dict[str, int]
    rows: tuple[ReportRow, ...]
    wall_clock_seconds: float | None = None

    def to_json_dict(self) -> dict:
        # wall clock deliberately excluded: report.json must be
        # byte-identical across reruns with the same config and seed
        return {
            "task": self.task,
            "seed": self.seed,
            "sizes": self.sizes,
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def worst_error_code(self) -> int:
        return max((r.error_code or 0 for r in self.rows), default=0)


def emit_report(report: ComparisonReport, output_dir: Path) -> None:
    """Write the comparison as ``report.json`` and as the ``report.md``
    table, which alone shows the wall clock."""
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    write_text(output_dir / "report.json", text, "report")
    lines = [
        "| Category | Architecture | Overlap | Macro AUROC (%) |",
        "| --- | --- | --- | --- |",
    ]
    for row in report.rows:
        value = (
            f"error: {row.error}"
            if row.macro_auroc is None
            else format_percent(row.macro_auroc)
        )
        overlap = "yes" if row.with_overlap else "no"
        lines.append(
            f"| {METHOD_LABELS[row.method]} | {' + '.join(row.scorer_ids)}"
            f" | {overlap} | {value} |"
        )
    lines.append("")
    lines.append(f"task: {report.task}, seed: {report.seed}, sizes: {report.sizes}")
    if report.wall_clock_seconds is not None:
        lines.append(f"wall clock: {report.wall_clock_seconds:.1f} s")
    write_text(output_dir / "report.md", "\n".join(lines) + "\n", "report")


def _load_notes(config: ExperimentConfig) -> list[ClinicalNote]:
    if isinstance(config.data, GeneratorConfig):
        return generate_synthetic_corpus(config.data, child_seed(config.seed, "data"))
    result = ingest_csv(config.data.path, config.data.schema)
    if result.missing_columns:
        logger.warning("%s: section columns absent, treated as empty: %s",
                       config.data.path, ", ".join(result.missing_columns))
    if result.skipped_rows:
        logger.warning("%s: skipped %d rows with bad labels",
                       config.data.path, result.skipped_rows)
    return result.notes


def _pattern_ids(
    descriptor: ScorerDescriptor, config: ExperimentConfig, vocab: Vocabulary
) -> tuple[int, ...]:
    """Ids of the scorer's ``metadata.pattern`` tokens, normalized as note text
    is ("auto": the synthetic signal). A token outside the vocabulary would map
    to UNK and fire on any run of unknown tokens, so it is refused."""
    spec = descriptor.metadata.get("pattern", "auto")
    if spec != "auto":
        tokens = normalize(spec)
    elif isinstance(config.data, GeneratorConfig):
        tokens = signal_pattern(config.data.signal_length)
    else:
        raise ConfigError("pattern 'auto' needs a synthetic data source")
    missing = [t for t in tokens if t not in vocab.token_to_id]
    if missing:
        raise ConfigError(
            f"pattern scorer {descriptor.scorer_id}: tokens {missing}"
            " are not in the vocabulary"
        )
    return tuple(vocab.token_to_id[t] for t in tokens)


def _build_scorer(
    descriptor: ScorerDescriptor,
    config: ExperimentConfig,
    vocab: Vocabulary,
    train: TrainingSplit | None,
    validation: TrainingSplit | None,
    test_ids: frozenset[str],
    output_dir: Path,
) -> ChunkScorer:
    if descriptor.kind is ScorerKind.MOCK:
        probs = descriptor.metadata.get("probs")
        if probs is None:
            raise ConfigError(
                f"mock scorer {descriptor.scorer_id} needs metadata.probs"
            )
        values = parse_probs(probs, f"mock scorer {descriptor.scorer_id}: probs")
        return MockScorer.constant(descriptor.scorer_id, values)
    if descriptor.kind is ScorerKind.PATTERN:
        ids = _pattern_ids(descriptor, config, vocab)
        return PatternScorer.for_pattern(descriptor.scorer_id, ids)
    if descriptor.kind is ScorerKind.REMOTE:
        return RemoteScorer.connect(
            descriptor.metadata.get("endpoint", ""),
            config.task.value,
            config.task.num_classes,
            scorer_id=descriptor.scorer_id,
        )
    checkpoint = descriptor.metadata.get("checkpoint")
    if checkpoint:
        scorer = LinearScorer.load(checkpoint)
        if scorer.vocab_sha256 != vocab.sha256():
            raise ConfigError(
                f"checkpoint {checkpoint} was trained on vocabulary"
                f" {scorer.vocab_sha256}, not this run's {vocab.sha256()}"
            )
        return scorer
    trainer = dataclasses.replace(
        config.trainer, seed=child_seed(config.seed, f"train:{descriptor.scorer_id}")
    )
    scorer, log = train_linear_scorer(
        train,
        validation,
        num_classes=config.task.num_classes,
        config=trainer,
        scorer_id=descriptor.scorer_id,
    )
    leaked = log.seen_note_ids & test_ids
    if leaked:
        raise ContractError(f"trainer saw test notes: {sorted(leaked)[:5]}")
    scorer.save(output_dir / f"scorer_{descriptor.scorer_id}.ckpt.json")
    logger.info(
        "trained %s: best val AUROC %.4f at epoch %d (%d epochs run)",
        descriptor.scorer_id, log.best_val_auroc, log.best_epoch, len(log.epochs),
    )
    return scorer


def _row_plan(config: ExperimentConfig) -> list[tuple[Method, tuple[str, ...]]]:
    all_ids = tuple(s.scorer_id for s in config.scorers)
    plan = []
    for method in Method:  # definition order is report order
        if method not in config.methods:
            continue
        if method in (Method.BASELINE, Method.AGGREGATION):
            plan.extend((method, (sid,)) for sid in all_ids)
        else:
            plan.append((method, all_ids))
    return plan


def _note_probs(
    method: Method,
    scorer_ids: Sequence[str],
    columns: dict[str, list[np.ndarray]],
    weights: dict[str, float],
) -> np.ndarray:
    """Fuse cached window scores into one ``(notes, classes)`` array;
    ``columns[sid][i]`` is note ``i``'s ``(windows, classes)`` array."""
    if method in (Method.BASELINE, Method.AGGREGATION):
        scorer_ids = scorer_ids[:1]
    if method in (Method.BASELINE, Method.ENSEMBLE):
        first = np.array([[note[0] for note in columns[sid]] for sid in scorer_ids])
        return first.mean(axis=0)  # over scorers: (p, notes, c) -> (notes, c)
    windows = np.stack([np.concatenate(columns[sid]) for sid in scorer_ids])
    if method is Method.ENSEMBLE_AGGREGATION:
        w = np.array([weights[sid] for sid in scorer_ids])
        windows = np.einsum("pkc,p->kc", windows, w / w.sum())[None]
    return pool_windows(windows[0], [len(note) for note in columns[scorer_ids[0]]])


@dataclass
class PreparedData:
    """Everything the grid needs after ingestion, splitting, and vocab."""

    vocab: Vocabulary
    sizes: dict[str, int]
    test_ids: frozenset[str]
    test_notes: list[ClinicalNote]
    test_labels: list[int]
    # Shared by every trained scorer, released by build_scorers; None if none trains
    train: TrainingSplit | None
    validation: TrainingSplit | None


def prepare_data(config: ExperimentConfig) -> PreparedData:
    """Load notes, split them, build the vocab from train only, and
    featurize the train and validation splits if any scorer trains."""
    notes = _load_notes(config)
    kept, labels = filter_for_task(notes, config.task)
    if not kept:
        raise DataError("no notes carry a label for the requested task")
    labeled = {n.note_id: (n, label) for n, label in zip(kept, labels)}
    split = split_dataset(
        [n.note_id for n in kept], config.split_ratios, child_seed(config.seed, "split")
    )
    for name in ("train", "test"):
        if not getattr(split, name):
            raise DataError(
                f"the {name} split is empty: {len(kept)} labeled notes"
                f" split by ratios {list(config.split_ratios)}"
            )

    def notes_and_labels(ids: tuple[str, ...]) -> tuple[list[ClinicalNote], list[int]]:
        return [labeled[i][0] for i in ids], [labeled[i][1] for i in ids]

    vocab = build_vocabulary(
        [labeled[i][0].assembled_text for i in split.train], config.vocab_size
    )
    needs_training = any(
        s.kind is ScorerKind.LINEAR and not s.metadata.get("checkpoint")
        for s in config.scorers
    )
    train = validation = None
    if needs_training:
        train, validation = (
            build_labeled_chunks(*notes_and_labels(ids), config.chunking, vocab)
            for ids in (split.train, split.validation)
        )
    test_notes, test_labels = notes_and_labels(split.test)
    return PreparedData(
        vocab=vocab,
        sizes={
            "train": len(split.train),
            "validation": len(split.validation),
            "test": len(split.test),
        },
        test_ids=frozenset(split.test),
        test_notes=test_notes,
        test_labels=test_labels,
        train=train,
        validation=validation,
    )


def build_scorers(
    config: ExperimentConfig, prepared: PreparedData
) -> tuple[dict[str, ChunkScorer], dict[str, ChunkfuseError]]:
    """Construct every configured scorer; failures are collected, not raised.

    A scorer whose class count is not the task's fails here. The shared
    training splits are taken out of ``prepared`` and freed on return.
    """
    output_dir = make_dir(config.output_dir, "output directory")
    train, validation = prepared.train, prepared.validation
    prepared.train = prepared.validation = None
    scorers: dict[str, ChunkScorer] = {}
    failures: dict[str, ChunkfuseError] = {}
    for descriptor in config.scorers:
        try:
            scorer = _build_scorer(
                descriptor, config, prepared.vocab, train, validation,
                prepared.test_ids, output_dir,
            )
            width, wanted = scorer.descriptor.num_classes, config.task.num_classes
            if width != wanted:
                raise ConfigError(f"gives {width} classes, the task has {wanted}")
            scorers[descriptor.scorer_id] = scorer
        except ChunkfuseError as err:
            logger.error("scorer %s failed to build: %s", descriptor.scorer_id, err)
            failures[descriptor.scorer_id] = err
    return scorers, failures


def run_experiment(config: ExperimentConfig) -> ComparisonReport:
    """Execute the full grid and write report/ROC artifacts to output_dir."""
    started = time.perf_counter()
    output_dir = make_dir(config.output_dir, "output directory")

    prepared = prepare_data(config)
    test_notes = prepared.test_notes
    test_labels = prepared.test_labels
    scorers, failures = build_scorers(config, prepared)

    # Chunk each test note once, then score per scorer in one flat batch.
    chunk_lists: list[list[Chunk]] = []
    for note in test_notes:
        ids = tokenize(note.assembled_text, prepared.vocab).ids
        windows = chunk(ids, config.chunking)
        coverage_check(ids, windows, config.chunking)
        chunk_lists.append(windows)
    flat = [c for chunks in chunk_lists for c in chunks]
    offsets = np.cumsum([0] + [len(c) for c in chunk_lists])
    columns: dict[str, list[np.ndarray]] = {}
    for scorer_id, scorer in list(scorers.items()):
        try:
            arr = score_chunks(scorer, flat)
        except ChunkfuseError as err:
            logger.error("scorer %s failed to score: %s", scorer_id, err)
            failures[scorer_id] = err
            continue
        columns[scorer_id] = np.split(arr, offsets[1:-1])

    weights = {
        s.scorer_id: w for s, w in zip(config.scorers, config.fusion.model_weights)
    }
    with_overlap = config.chunking.overlap > 0

    def evaluate_row(spec: tuple[Method, tuple[str, ...]]) -> ReportRow:
        method, ids = spec
        broken = [i for i in ids if i in failures]
        if broken:
            err = failures[broken[0]]
            return ReportRow(
                method=method, scorer_ids=ids, with_overlap=with_overlap,
                error=f"scorer {broken[0]}: {err}", error_code=err.exit_code,
            )
        probs = _note_probs(method, ids, columns, weights)
        try:
            roc = macro_auroc(probs, test_labels, config.task.num_classes)
        except MetricUndefinedError as err:
            return ReportRow(
                method=method, scorer_ids=ids, with_overlap=with_overlap,
                error=str(err), error_code=err.exit_code,
            )
        return ReportRow(
            method=method, scorer_ids=ids, with_overlap=with_overlap,
            roc=roc,
        )

    rows = tuple(evaluate_row(spec) for spec in _row_plan(config))

    report = ComparisonReport(
        task=config.task.value,
        seed=config.seed,
        sizes=prepared.sizes,
        rows=rows,
        wall_clock_seconds=time.perf_counter() - started,
    )
    emit_report(report, output_dir)
    final = next((r for r in reversed(rows) if r.roc is not None), None)
    if final is not None:
        for class_index in final.roc.roc_points:
            final.roc.write_roc_csv(class_index, output_dir / f"roc_class_{class_index}.csv")
    return report
