"""Note data model, CSV ingestion, dataset splitting, synthetic corpora.

A note is eight ordered text sections plus optional labels. The assembled
text is the fixed-order concatenation of the non-empty sections with a
single space joiner. The synthetic generator plants a signal token
pattern into positive documents so detection quality is measurable
against a known ground truth.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    InvalidLabelError,
    SchemaError,
    config_block,
)

# Fixed assembly order: chief complaint, present illness, medical history,
# admission medications, allergies, physical exam, family history, social
# history. Assembly and ingestion both key off this tuple.
SECTION_ORDER = ("CC", "PI", "MH", "AM", "AL", "PE", "FH", "SH")


# Upper edges of the length-of-stay bins, inclusive: <=3, (3,7], (7,14], >14 days.
LOS_BIN_EDGES = (3.0, 7.0, 14.0)


class TaskKind(Enum):
    """Classification target: binary outcome or four stay-length bins."""

    MORTALITY = "mortality"
    LENGTH_OF_STAY = "length_of_stay"

    @property
    def num_classes(self) -> int:
        return 2 if self is TaskKind.MORTALITY else len(LOS_BIN_EDGES) + 1

    def label(self, note: ClinicalNote) -> int | None:
        """The note's class for this task, or None if it carries no label
        for it; the one derivation of a class from a note."""
        if self is TaskKind.MORTALITY:
            return note.mortality_label
        return None if note.los_days is None else bisect_left(LOS_BIN_EDGES, note.los_days)


def assemble_note(sections: dict[str, str]) -> str:
    """Concatenate the eight sections in fixed order, single-space joined,
    with empty sections contributing nothing."""
    missing = [k for k in SECTION_ORDER if k not in sections]
    if missing:
        raise ContractError(f"section map missing kinds: {missing}")
    parts = (sections[k].strip() for k in SECTION_ORDER)
    return " ".join(p for p in parts if p)


@dataclass(frozen=True)
class ClinicalNote:
    """One admission note. ``assembled_text`` is derived from ``sections``
    at construction and is not an argument."""

    note_id: str
    sections: dict[str, str]
    assembled_text: str = field(init=False)
    mortality_label: int | None = None  # 1 = died in hospital, 0 = survived
    los_days: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "assembled_text", assemble_note(self.sections))
        if self.mortality_label is not None and self.mortality_label not in (0, 1):
            raise InvalidLabelError(
                f"note {self.note_id}: mortality label must be 0 or 1"
            )
        if self.los_days is not None and not 0 <= self.los_days < math.inf:
            raise InvalidLabelError(
                f"note {self.note_id}: los_days must be finite and non-negative,"
                f" got {self.los_days}"
            )


def filter_for_task(
    notes: Sequence[ClinicalNote], task: TaskKind
) -> tuple[list[ClinicalNote], list[int]]:
    """Keep only notes labeled for the task; return them with class indices.

    Notes lacking the relevant label are excluded rather than treated as
    errors, so one ingested corpus can serve both tasks.
    """
    kept: list[ClinicalNote] = []
    labels: list[int] = []
    for note in notes:
        label = task.label(note)
        if label is not None:
            kept.append(note)
            labels.append(label)
    return kept, labels


@config_block
class CsvSchema:
    """Maps note fields to CSV column names."""

    id_column: str
    section_columns: dict[str, str]
    mortality_column: str | None = None
    los_column: str | None = None

    def __post_init__(self) -> None:
        missing = [k for k in SECTION_ORDER if k not in self.section_columns]
        if missing:
            raise SchemaError(f"schema missing section kinds: {missing}")


@dataclass(frozen=True)
class IngestResult:
    notes: list[ClinicalNote]
    skipped_rows: int
    missing_columns: tuple[str, ...]


def _cell(row: dict[str, str], column: str | None, kind: type) -> int | float | None:
    """A label cell parsed as ``kind``; None for an unmapped or absent
    column or a blank cell. A cell ``kind`` cannot parse is a ValueError."""
    text = (row.get(column) or "").strip() if column else ""
    return kind(text) if text else None


def ingest_csv(path: str | Path, schema: CsvSchema) -> IngestResult:
    """Read one note per CSV row.

    Section columns absent from the header are treated as empty and
    listed in the result, for the caller to report; rows whose label
    values are present but unparseable or out of range are skipped and
    counted instead of failing the whole file. A path that is missing, is
    not a readable file, or does not hold UTF-8 CSV, and a row with fewer
    cells than the header, are a DataError naming it.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            return _read_notes(path, csv.DictReader(handle), schema)
    except FileNotFoundError as err:
        raise DataError(f"input file not found: {path}") from err
    except OSError as err:  # a directory, no permission
        raise DataError(f"cannot read input file {path}: {err}") from err
    except (UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"{path} is not a UTF-8 CSV file: {err}") from err


def _read_notes(path: Path, reader: csv.DictReader, schema: CsvSchema) -> IngestResult:
    header = reader.fieldnames or []
    if schema.id_column not in header:
        raise SchemaError(f"{path}: id column {schema.id_column!r} not in header")
    missing = tuple(
        col
        for col in (schema.section_columns[k] for k in SECTION_ORDER)
        if col not in header
    )
    notes: list[ClinicalNote] = []
    skipped = 0
    for row in reader:
        if None in row.values():  # csv.DictReader's filler for a missing cell
            raise DataError(f"{path}: line {reader.line_num} has fewer cells than the header")
        try:
            notes.append(ClinicalNote(
                note_id=row[schema.id_column],
                sections={k: row.get(schema.section_columns[k]) or "" for k in SECTION_ORDER},
                mortality_label=_cell(row, schema.mortality_column, int),
                los_days=_cell(row, schema.los_column, float),
            ))
        except (ValueError, InvalidLabelError):
            skipped += 1
    return IngestResult(notes=notes, skipped_rows=skipped, missing_columns=missing)


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]


def check_split_ratios(ratios: Sequence[float]) -> None:
    """Refuse ``split_ratios`` that do not sum to 1 or hold a negative value."""
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # NaN fails too
        raise ConfigError(f"split_ratios must sum to 1, got {ratios}")
    if any(r < 0 for r in ratios):
        raise ConfigError(f"split_ratios must be non-negative, got {ratios}")


def split_dataset(
    ids: Sequence[str], ratios: tuple[float, float, float], seed: int
) -> DatasetSplit:
    """Shuffle note ids and partition them into train/validation/test.

    Sizes follow largest-remainder apportionment, so each realized size
    is within one note of its exact proportional share.
    """
    check_split_ratios(ratios)
    if not ids:
        raise ContractError("cannot split an empty corpus")
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise DataError("duplicate note ids in corpus")
    rng = random.Random(seed)
    rng.shuffle(ids)
    n = len(ids)
    exact = [r * n for r in ratios]
    counts = [int(e) for e in exact]
    # Hand leftover notes to the largest fractional remainders, earlier
    # splits winning ties, so the result is deterministic.
    order = sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    bounds = list(itertools.accumulate([0] + counts))
    return DatasetSplit(
        train=tuple(ids[bounds[0] : bounds[1]]),
        validation=tuple(ids[bounds[1] : bounds[2]]),
        test=tuple(ids[bounds[2] : bounds[3]]),
    )


# ---------------------------------------------------------------------------
# Synthetic corpus generation


def _filler_vocabulary(size: int) -> list[str]:
    """Pseudo-words from consonant-vowel syllables. Pure CV strings, so
    they can never collide with the digit-bearing signal tokens."""
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    words = []
    for a, b in itertools.product(syllables, repeat=2):
        words.append(a + b)
        if len(words) >= size:
            return words
    raise ConfigError(f"filler vocabulary size {size} exceeds syllable space")


def signal_pattern(length: int) -> tuple[str, ...]:
    """The planted pattern: ``sig0 sig1 ...``. Disjoint from filler words."""
    return tuple(f"sig{i}" for i in range(length))


def find_pattern(tokens: Sequence, pattern: Sequence) -> list[int]:
    """All start offsets where ``pattern`` occurs contiguously in ``tokens``,
    overlapping occurrences included.

    ``tuple.index`` finds each candidate start and one slice comparison
    confirms it, so the scan runs at C speed rather than per token.
    """
    if not pattern:
        raise ContractError("pattern must be non-empty")
    tokens, pattern = tuple(tokens), tuple(pattern)
    width, first = len(pattern), pattern[0]
    stop = len(tokens) - width + 1  # one past the last possible start
    hits: list[int] = []
    i = 0
    while i < stop:
        try:
            i = tokens.index(first, i, stop)
        except ValueError:
            break
        if tokens[i : i + width] == pattern:
            hits.append(i)
        i += 1
    return hits


@config_block
class GeneratorConfig:
    """Synthetic corpus shape.

    ``placement`` is "uniform" (offset uniform over the document) or
    "boundary" (with probability ``straddle_prob`` the pattern straddles a
    multiple of ``boundary_period``, otherwise it avoids all of them).
    """

    num_docs: int
    min_tokens: int = 1500
    max_tokens: int = 3000
    signal_length: int = 12
    positive_fraction: float = 0.5
    placement: str = "uniform"
    boundary_period: int = 510
    straddle_prob: float = 0.5
    filler_vocab_size: int = 400

    def __post_init__(self) -> None:
        if self.num_docs < 1:
            raise ConfigError("num_docs must be positive")
        if not 0 < self.min_tokens <= self.max_tokens:
            raise ConfigError("need 0 < min_tokens <= max_tokens")
        if self.signal_length < 1:
            raise ConfigError("signal_length must be positive")
        if self.min_tokens < self.signal_length:
            raise ConfigError(
                f"documents of {self.min_tokens} tokens cannot hold a"
                f" {self.signal_length}-token signal"
            )
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise ConfigError("positive_fraction must be in [0, 1]")
        if self.filler_vocab_size < 1:
            raise ConfigError("filler_vocab_size must be positive")
        if self.placement not in ("uniform", "boundary"):
            raise ConfigError(f"unknown placement mode: {self.placement!r}")
        if self.placement == "boundary":
            if not 0.0 <= self.straddle_prob <= 1.0:
                raise ConfigError("straddle_prob must be in [0, 1]")
            if self.signal_length == 1 and self.straddle_prob > 0:
                raise ConfigError("a 1-token signal cannot straddle a boundary;"
                                  " set straddle_prob 0 or signal_length > 1")
            if self.min_tokens <= self.boundary_period:
                raise ConfigError(
                    "boundary placement needs min_tokens > boundary_period"
                )
            if self.signal_length >= self.boundary_period:
                raise ConfigError("signal must be shorter than boundary_period")


def _straddles(offset: int, length: int, period: int) -> bool:
    first_boundary = (offset // period + 1) * period
    return first_boundary < offset + length


def _choose_offset(rng: random.Random, m: int, config: GeneratorConfig) -> int:
    length = config.signal_length
    if config.placement == "uniform":
        return rng.randint(0, m - length)
    if rng.random() < config.straddle_prob:
        boundaries = range(config.boundary_period, m, config.boundary_period)
        b = rng.choice(list(boundaries))
        low = max(0, b - length + 1)
        high = min(b - 1, m - length)
        return rng.randint(low, high)
    for _ in range(1000):
        offset = rng.randint(0, m - length)
        if not _straddles(offset, length, config.boundary_period):
            return offset
    raise ContractError("could not place signal off-boundary after 1000 tries")


def _into_sections(tokens: list[str]) -> dict[str, str]:
    """Spread tokens over the eight sections in contiguous runs. The
    single-space assembly joiner keeps the overall token sequence intact."""
    bounds = [round(i * len(tokens) / 8) for i in range(9)]
    return {
        kind: " ".join(tokens[bounds[i] : bounds[i + 1]])
        for i, kind in enumerate(SECTION_ORDER)
    }


def generate_synthetic_corpus(
    config: GeneratorConfig, seed: int
) -> list[ClinicalNote]:
    """Build a labeled corpus with a planted signal.

    Positive documents contain the signal pattern exactly once (spliced
    over filler, so length is unchanged); negatives never contain it
    because signal tokens are disjoint from the filler vocabulary. The
    positive count is exact: round(num_docs * positive_fraction).
    """
    rng = random.Random(seed)
    filler = _filler_vocabulary(config.filler_vocab_size)
    pattern = list(signal_pattern(config.signal_length))
    num_pos = int(config.num_docs * config.positive_fraction + 0.5)
    labels = [1] * num_pos + [0] * (config.num_docs - num_pos)
    rng.shuffle(labels)
    notes = []
    for i, label in enumerate(labels):
        m = rng.randint(config.min_tokens, config.max_tokens)
        tokens = rng.choices(filler, k=m)
        if label == 1:
            offset = _choose_offset(rng, m, config)
            tokens[offset : offset + config.signal_length] = pattern
        notes.append(
            ClinicalNote(
                note_id=f"syn-{i:05d}",
                sections=_into_sections(tokens),
                mortality_label=label,
            )
        )
    return notes
