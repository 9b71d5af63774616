"""Note data model, CSV ingestion, dataset splitting, synthetic corpora.

A note is eight ordered text sections plus optional labels. The assembled
text is the fixed-order concatenation of the non-empty sections with a
single space joiner. The synthetic generator plants a signal token
pattern into positive documents so detection quality is measurable
against a known ground truth. Its randomness is CPython's
``random.Random(seed)`` stream replayed on numpy's MT19937, so a corpus
has the bytes ``random.Random`` would give it, drawn at array speed;
``tests/test_corpus.py`` keeps the ``random.Random`` generator as the
oracle, so a Python whose ``random`` changes fails a test.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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

    def label(self, note: ClinicalNote | NoteLabels) -> int | None:
        """The note's class for this task, or None if it carries no label
        for it; the one derivation of a class from a note."""
        if self is TaskKind.MORTALITY:
            return note.mortality_label
        return None if note.los_days is None else bisect_left(LOS_BIN_EDGES, note.los_days)


class NoteLabels(NamedTuple):
    """A note's id and labels: all that filtering and splitting read, and
    known for a synthetic note before its text is made."""

    note_id: str
    mortality_label: int | None = None
    los_days: float | None = None


@dataclass(frozen=True)
class ClinicalNote:
    """One admission note: its eight sections, assembled into one text only
    when ``assembled_text`` is read, so the text is never stored twice."""

    note_id: str
    sections: dict[str, str]
    mortality_label: int | None = None  # 1 = died in hospital, 0 = survived
    los_days: float | None = None

    def __post_init__(self) -> None:
        missing = [k for k in SECTION_ORDER if k not in self.sections]
        if missing:
            raise ContractError(f"section map missing kinds: {missing}")
        if self.mortality_label is not None and self.mortality_label not in (0, 1):
            raise InvalidLabelError(
                f"note {self.note_id}: mortality label must be 0 or 1"
            )
        if self.los_days is not None and not 0 <= self.los_days < math.inf:
            raise InvalidLabelError(
                f"note {self.note_id}: los_days must be finite and non-negative,"
                f" got {self.los_days}"
            )

    @property
    def assembled_text(self) -> str:
        """The eight sections in fixed order, single-space joined, with
        empty sections contributing nothing."""
        parts = (self.sections[k].strip() for k in SECTION_ORDER)
        return " ".join(p for p in parts if p)


def filter_for_task(
    notes: Iterable[ClinicalNote | NoteLabels], task: TaskKind
) -> tuple[list[str], list[int]]:
    """The ids of the notes labeled for the task, with their class indices.

    Notes lacking the relevant label are excluded rather than treated as
    errors, so one ingested corpus can serve both tasks. Only ids and
    labels are read, so ``notes`` may be a synthetic corpus's
    ``note_labels``, whose texts do not exist yet.
    """
    kept: list[str] = []
    labels: list[int] = []
    for note in notes:
        label = task.label(note)
        if label is not None:
            kept.append(note.note_id)
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
    counted instead of failing the whole file. No cell is too long: csv's
    field limit is raised to the file's size. A path that is missing, is
    not a readable file, or does not hold UTF-8 CSV, a header that names a
    column twice, a row whose cell count is not the header's, and an empty
    or repeated note id are a DataError naming it.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:  # skips a BOM
            csv.field_size_limit(max(csv.field_size_limit(), path.stat().st_size))
            return _read_notes(path, csv.DictReader(handle), schema)
    except FileNotFoundError as err:
        raise DataError(f"input file not found: {path}") from err
    except OSError as err:  # a directory, no permission
        raise DataError(f"cannot read input file {path}: {err}") from err
    except (UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"{path} is not a UTF-8 CSV file: {err}") from err


def _read_notes(path: Path, reader: csv.DictReader, schema: CsvSchema) -> IngestResult:
    header = reader.fieldnames or []
    repeated = next((col for i, col in enumerate(header) if col in header[:i]), None)
    if repeated is not None:  # csv.DictReader would keep only its last cell
        raise DataError(f"{path}: header names column {repeated!r} twice")
    if schema.id_column not in header:
        raise SchemaError(f"{path}: id column {schema.id_column!r} not in header")
    missing = tuple(
        col
        for col in (schema.section_columns[k] for k in SECTION_ORDER)
        if col not in header
    )
    notes: list[ClinicalNote] = []
    first_line: dict[str, int] = {}  # note id -> line it first appeared on
    skipped = 0
    for row in reader:
        if None in row.values():  # csv.DictReader's filler for a missing cell
            raise DataError(f"{path}: line {reader.line_num} has fewer cells than the header")
        if None in row:  # csv.DictReader's key for the cells past the header
            raise DataError(f"{path}: line {reader.line_num} has more cells than the header")
        if not row[schema.id_column].strip():
            raise DataError(f"{path}: line {reader.line_num} has an empty note id")
        try:
            note = ClinicalNote(
                note_id=row[schema.id_column],
                sections={k: row.get(schema.section_columns[k]) or "" for k in SECTION_ORDER},
                mortality_label=_cell(row, schema.mortality_column, int),
                los_days=_cell(row, schema.los_column, float),
            )
        except (ValueError, InvalidLabelError):
            skipped += 1
            continue
        line = first_line.setdefault(note.note_id, reader.line_num)
        if line != reader.line_num:
            raise DataError(
                f"{path}: line {reader.line_num} repeats note id {note.note_id!r} of line {line}"
            )
        notes.append(note)
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


_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# Filler words are ordered pairs of consonant-vowel syllables: 70**2 of them.
FILLER_VOCAB_LIMIT = (len(_CONSONANTS) * len(_VOWELS)) ** 2


def _filler_vocabulary(size: int) -> list[str]:
    """Pseudo-words from consonant-vowel syllables. Pure CV strings, so
    they can never collide with the digit-bearing signal tokens."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    pairs = itertools.islice(itertools.product(syllables, repeat=2), size)
    return [a + b for a, b in pairs]


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
        if not 1 <= self.filler_vocab_size <= FILLER_VOCAB_LIMIT:
            raise ConfigError(
                f"filler_vocab_size must be in [1, {FILLER_VOCAB_LIMIT}],"
                f" the number of two-syllable filler words; got {self.filler_vocab_size}"
            )
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


class _ReplayedRandom:
    """``random.Random(seed)``'s draws, replayed on numpy's MT19937.

    ``random.Random`` is MT19937 too: its seeded 624-word state is copied
    once into numpy's bit generator, and each method consumes 32-bit
    words exactly as CPython 3.11's ``random.py`` does. ``choices`` turns
    one block of words into indices with array arithmetic, which is where
    the time went when ``random.Random`` drew one token per call.
    """

    def __init__(self, seed: int) -> None:
        _, internal, _ = random.Random(seed).getstate()
        bits = np.random.MT19937()
        bits.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
        }
        self._raw = bits.random_raw

    def randbelow(self, n: int) -> int:
        """``_randbelow``: the top ``n.bit_length()`` bits of one word,
        redrawn until below ``n``. CPython takes more than one word for
        ``n`` of 33 bits or more; that path is not replayed."""
        k = n.bit_length()
        if not 1 <= k <= 32:
            raise ContractError(f"cannot replay a draw below {n}: needs 1 to 32 bits")
        shift = 32 - k
        r = self._raw() >> shift
        while r >= n:
            r = self._raw() >> shift
        return r

    def randint(self, a: int, b: int) -> int:
        return a + self.randbelow(b - a + 1)

    def random(self) -> float:
        """53 bits from two words, as CPython's ``genrand_res53``."""
        return ((self._raw() >> 5) * 67108864.0 + (self._raw() >> 6)) / 9007199254740992.0

    def choice(self, seq: Sequence):
        return seq[self.randbelow(len(seq))]

    def shuffle(self, x: list) -> None:
        for i in reversed(range(1, len(x))):
            j = self.randbelow(i + 1)
            x[i], x[j] = x[j], x[i]

    def choices(self, population: np.ndarray, k: int) -> list:
        """``choices(population, k=k)``: ``floor(random() * n)`` per pick,
        two words each. Every step is exact in float64 but the product
        with ``n``, which rounds once, as CPython's does."""
        words = self._raw(2 * k)
        doubles = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
        return population[np.floor(doubles * len(population)).astype(np.intp)].tolist()


def _choose_offset(rng: _ReplayedRandom, m: int, config: GeneratorConfig) -> int:
    length, period = config.signal_length, config.boundary_period
    if config.placement == "uniform":
        return rng.randint(0, m - length)
    if rng.random() < config.straddle_prob:
        boundaries = range(period, m, period)
        b = rng.choice(list(boundaries))
        low = max(0, b - length + 1)
        high = min(b - 1, m - length)
        return rng.randint(low, high)
    for _ in range(1000):
        offset = rng.randint(0, m - length)
        if not _straddles(offset, length, period):
            return offset
    # Few offsets avoid every boundary when the signal nearly fills a
    # period. Draw among them; offset 0 is always one. The tries above
    # stay first so that every corpus they could place keeps its bytes.
    return rng.choice([o for o in range(m - length + 1) if not _straddles(o, length, period)])


def _into_sections(tokens: list[str]) -> dict[str, str]:
    """Spread tokens over the eight sections in contiguous runs. The
    single-space assembly joiner keeps the overall token sequence intact."""
    bounds = [round(i * len(tokens) / 8) for i in range(9)]
    return {
        kind: " ".join(tokens[bounds[i] : bounds[i + 1]])
        for i, kind in enumerate(SECTION_ORDER)
    }


class SyntheticCorpus:
    """A synthetic corpus that makes each note's text only as it is reached.

    Each iteration replays the seed's stream from its start, so every pass
    yields the same notes and no pass keeps one. The labels are the
    stream's first draws, so ``note_labels`` exist before any text does.
    """

    def __init__(self, config: GeneratorConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        labels = self._shuffled_labels(_ReplayedRandom(seed))
        self.note_labels = [
            NoteLabels(_synthetic_id(i), label) for i, label in enumerate(labels)
        ]

    def _shuffled_labels(self, rng: _ReplayedRandom) -> list[int]:
        """Exactly round(num_docs * positive_fraction) positives, shuffled."""
        num_pos = int(self.config.num_docs * self.config.positive_fraction + 0.5)
        labels = [1] * num_pos + [0] * (self.config.num_docs - num_pos)
        rng.shuffle(labels)
        return labels

    def __iter__(self) -> Iterator[ClinicalNote]:
        config = self.config
        rng = _ReplayedRandom(self.seed)
        filler = np.array(_filler_vocabulary(config.filler_vocab_size), dtype=object)
        pattern = list(signal_pattern(config.signal_length))
        for i, label in enumerate(self._shuffled_labels(rng)):
            m = rng.randint(config.min_tokens, config.max_tokens)
            tokens = rng.choices(filler, m)
            if label == 1:
                offset = _choose_offset(rng, m, config)
                tokens[offset : offset + config.signal_length] = pattern
            yield ClinicalNote(
                note_id=_synthetic_id(i),
                sections=_into_sections(tokens),
                mortality_label=label,
            )


def _synthetic_id(i: int) -> str:
    return f"syn-{i:05d}"


def generate_synthetic_corpus(config: GeneratorConfig, seed: int) -> SyntheticCorpus:
    """A labeled corpus with a planted signal, made lazily (see SyntheticCorpus).

    Positive documents contain the signal pattern exactly once (spliced
    over filler, so length is unchanged); negatives never contain it
    because signal tokens are disjoint from the filler vocabulary. The
    positive count is exact: round(num_docs * positive_fraction).
    """
    return SyntheticCorpus(config, seed)
