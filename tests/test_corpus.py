import hashlib
import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chunkfuse.cli import load_config
from chunkfuse.corpus import (
    FILLER_VOCAB_LIMIT,
    LOS_BIN_EDGES,
    SECTION_ORDER,
    ClinicalNote,
    CsvSchema,
    GeneratorConfig,
    TaskKind,
    filter_for_task,
    find_pattern,
    generate_synthetic_corpus,
    ingest_csv,
    signal_pattern,
    split_dataset,
    _filler_vocabulary,
    _into_sections,
    _ReplayedRandom,
    _straddles,
)
from chunkfuse.errors import (
    ConfigError,
    ContractError,
    DataError,
    InvalidLabelError,
    SchemaError,
)
from chunkfuse.experiment import CsvSource, _load_notes
from chunkfuse.metrics import auc
from chunkfuse.tokenizer import build_vocabulary


def sections(**overrides):
    base = {k: "" for k in SECTION_ORDER}
    base.update(overrides)
    return base


def assembled(**overrides):
    return ClinicalNote(note_id="n", sections=sections(**overrides)).assembled_text


def test_assemble_elides_empty_sections():
    assert assembled(CC="chest pain", MH="diabetes") == "chest pain diabetes"
    assert assembled() == ""
    full = {k: v for k, v in zip(SECTION_ORDER, "abcdefgh")}
    assert ClinicalNote(note_id="n", sections=full).assembled_text == "a b c d e f g h"


def test_assemble_strips_section_edges():
    assert assembled(CC="  x ", PI="y") == "x y"


def test_assemble_requires_all_kinds():
    # refused when the note is built, before any text is read
    partial = {k: "" for k in SECTION_ORDER[:-1]}
    with pytest.raises(ContractError, match=r"missing kinds: \['SH'\]"):
        ClinicalNote(note_id="n", sections=partial)


def reference_assembly(sections):
    """The reference assembly: the single-space join of the stripped,
    non-empty sections in fixed order."""
    return " ".join(s.strip() for s in (sections[k] for k in SECTION_ORDER) if s.strip())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(" \t\nab.", max_size=6), min_size=8, max_size=8))
def test_note_stores_its_text_once(texts):
    note = ClinicalNote(note_id="n1", sections=dict(zip(SECTION_ORDER, texts)))
    assert "assembled_text" not in vars(note)
    assert note.assembled_text == reference_assembly(note.sections)


def test_note_label_validation():
    with pytest.raises(InvalidLabelError):
        ClinicalNote(note_id="n", sections=sections(), mortality_label=2)
    for days in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidLabelError):
            ClinicalNote(note_id="n", sections=sections(), los_days=days)


def stay(days):
    return ClinicalNote(note_id="n", sections=sections(), los_days=days)


def test_task_kind_properties():
    assert TaskKind.MORTALITY.num_classes == 2
    assert LOS_BIN_EDGES == (3.0, 7.0, 14.0)
    assert TaskKind.LENGTH_OF_STAY.num_classes == 4
    both = ClinicalNote(note_id="n", sections=sections(), mortality_label=1, los_days=20.0)
    assert TaskKind.MORTALITY.label(both) == 1
    assert TaskKind.LENGTH_OF_STAY.label(both) == 3
    unlabeled = ClinicalNote(note_id="n", sections=sections())
    assert [task.label(unlabeled) for task in TaskKind] == [None, None]


def test_los_bins_match_documented_boundaries():
    los = TaskKind.LENGTH_OF_STAY
    cases = {0.0: 0, 3.0: 0, 3.5: 1, 7.0: 1, 7.1: 2, 14.0: 2, 14.5: 3, 100.0: 3}
    for days, expected in cases.items():
        assert los.label(stay(days)) == expected, days
    # a stay no bin holds never becomes a note
    for days in (-0.5, float("nan"), float("inf")):
        with pytest.raises(InvalidLabelError):
            stay(days)


@given(st.lists(st.floats(0, 60, allow_nan=False), min_size=2, max_size=40))
def test_los_class_monotone(days):
    classes = [TaskKind.LENGTH_OF_STAY.label(stay(d)) for d in sorted(days)]
    assert classes == sorted(classes)
    assert all(0 <= c <= 3 for c in classes)


def test_filter_for_task_drops_unlabeled():
    notes = [
        ClinicalNote(note_id="a", sections=sections(), mortality_label=1),
        ClinicalNote(note_id="b", sections=sections(), los_days=5.0),
        ClinicalNote(note_id="c", sections=sections(), mortality_label=0,
                     los_days=20.0),
    ]
    kept, labels = filter_for_task(notes, TaskKind.MORTALITY)
    assert [n.note_id for n in kept] == ["a", "c"]
    assert labels == [1, 0]
    kept, labels = filter_for_task(notes, TaskKind.LENGTH_OF_STAY)
    assert [n.note_id for n in kept] == ["b", "c"]
    assert labels == [1, 3]


SCHEMA = CsvSchema(
    id_column="note_id",
    section_columns={k: k.lower() for k in SECTION_ORDER},
    mortality_column="died",
    los_column="los",
)


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")


def test_ingest_happy_path(tmp_path):
    path = tmp_path / "notes.csv"
    header = ["note_id"] + [k.lower() for k in SECTION_ORDER] + ["died", "los"]
    rows = [
        ["n1", "chest pain", "two days", "", "", "", "", "", "", "1", "3.5"],
        ["n2", '"fever, cough"', "", "copd", "", "", "", "", "", "0", ""],
        ["n3", "", "", "", "", "", "", "", "quiet", "", "12"],
    ]
    write_csv(path, header, rows)
    result = ingest_csv(path, SCHEMA)
    assert result.skipped_rows == 0
    assert result.missing_columns == ()
    assert len(result.notes) == 3
    n1, n2, n3 = result.notes
    assert n1.assembled_text == "chest pain two days"
    assert (n1.mortality_label, n1.los_days) == (1, 3.5)
    assert n2.sections["CC"] == "fever, cough"  # quoted comma survives
    assert (n2.mortality_label, n2.los_days) == (0, None)
    assert (n3.mortality_label, n3.los_days) == (None, 12.0)


def test_ingest_skips_unparseable_labels(tmp_path):
    path = tmp_path / "notes.csv"
    header = ["note_id"] + [k.lower() for k in SECTION_ORDER] + ["died", "los"]
    rows = [
        ["n1", "a", "", "", "", "", "", "", "", "1", "abc"],
        ["n2", "b", "", "", "", "", "", "", "", "2", ""],
        ["n3", "c", "", "", "", "", "", "", "", "", "-4"],
        ["n4", "d", "", "", "", "", "", "", "", "0", "1"],
        # a non-finite stay has no length-of-stay bin
        ["n5", "e", "", "", "", "", "", "", "", "", "nan"],
        ["n6", "f", "", "", "", "", "", "", "", "", "NaN"],
        ["n7", "g", "", "", "", "", "", "", "", "", "inf"],
        ["n8", "h", "", "", "", "", "", "", "", "", "-inf"],
    ]
    write_csv(path, header, rows)
    result = ingest_csv(path, SCHEMA)
    assert result.skipped_rows == 7
    assert [n.note_id for n in result.notes] == ["n4"]


def test_ingest_missing_section_column_warns(tmp_path, caplog):
    path = tmp_path / "notes.csv"
    header = ["note_id"] + [k.lower() for k in SECTION_ORDER if k != "FH"]
    rows = [["n1", "a", "b", "c", "d", "e", "f", "g"]]
    write_csv(path, header, rows)
    with caplog.at_level("WARNING"):
        result = ingest_csv(path, SCHEMA)
    # listed for the caller, which reports it once; ingest itself is silent
    assert result.missing_columns == ("fh",)
    assert caplog.text == ""
    source = SimpleNamespace(data=CsvSource(path=str(path), schema=SCHEMA))
    with caplog.at_level("WARNING"):
        _load_notes(source)
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: section columns absent, treated as empty: fh"
    ]
    assert result.notes[0].sections["FH"] == ""
    assert result.notes[0].assembled_text == "a b c d e f g"


def test_ingest_error_paths(tmp_path):
    with pytest.raises(DataError):
        ingest_csv(tmp_path / "absent.csv", SCHEMA)
    path = tmp_path / "noid.csv"
    write_csv(path, ["cc"], [["x"]])
    with pytest.raises(SchemaError):
        ingest_csv(path, SCHEMA)
    with pytest.raises(SchemaError):
        CsvSchema(id_column="note_id", section_columns={"CC": "cc"})
    path = tmp_path / "repeat.csv"
    # a skipped row (mortality 2) is not a note, so its id is not compared
    rows = [["a", "x", "2"], ["a", "y", "1"], ["b", "z", ""], ["a", "w", "0"]]
    write_csv(path, ["note_id", "cc", "died"], rows)
    with pytest.raises(DataError, match=r"line 5 repeats note id 'a' of line 3$"):
        ingest_csv(path, SCHEMA)


def test_split_exact_divisibility():
    split = split_dataset([f"n{i}" for i in range(10)], (0.7, 0.1, 0.2), seed=42)
    assert tuple(map(len, (split.train, split.validation, split.test))) == (7, 1, 2)


def test_split_determinism_and_partition():
    ids = [f"n{i}" for i in range(101)]
    a = split_dataset(ids, (0.7, 0.1, 0.2), seed=9)
    b = split_dataset(ids, (0.7, 0.1, 0.2), seed=9)
    assert a == b
    assert split_dataset(ids, (0.7, 0.1, 0.2), seed=10) != a
    combined = set(a.train) | set(a.validation) | set(a.test)
    assert combined == set(ids)
    assert len(a.train) + len(a.validation) + len(a.test) == 101


def test_split_config_errors():
    with pytest.raises(ConfigError):
        split_dataset(["a", "b"], (0.7, 0.1, 0.1), seed=0)
    with pytest.raises(ConfigError):
        split_dataset(["a", "b"], (1.2, -0.1, -0.1), seed=0)
    with pytest.raises(ContractError):
        split_dataset([], (0.7, 0.1, 0.2), seed=0)


@settings(max_examples=120)
@given(
    st.integers(3, 500),
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
    st.integers(0, 2**32 - 1),
)
def test_split_proportions_within_one(n, weights, seed):
    total = sum(weights)
    ratios = tuple(w / total for w in weights)
    ids = [f"n{i}" for i in range(n)]
    split = split_dataset(ids, ratios, seed=seed)
    parts = (split.train, split.validation, split.test)
    assert set().union(*map(set, parts)) == set(ids)
    assert sum(map(len, parts)) == n
    for part, ratio in zip(parts, ratios):
        assert abs(len(part) - ratio * n) <= 1.0


def test_generator_exact_balance_and_single_occurrence():
    config = GeneratorConfig(num_docs=200, min_tokens=150, max_tokens=300,
                             signal_length=12)
    notes = generate_synthetic_corpus(config, seed=7)
    assert len(notes) == 200
    pattern = signal_pattern(12)
    positives = [n for n in notes if n.mortality_label == 1]
    assert len(positives) == 100
    for note in notes:
        hits = find_pattern(note.assembled_text.split(), pattern)
        assert len(hits) == (1 if note.mortality_label == 1 else 0)


def test_generator_deterministic_per_seed():
    config = GeneratorConfig(num_docs=30, min_tokens=50, max_tokens=80)
    a = generate_synthetic_corpus(config, seed=5)
    b = generate_synthetic_corpus(config, seed=5)
    assert a == b
    assert generate_synthetic_corpus(config, seed=6) != a


def test_generator_lengths_and_sections():
    config = GeneratorConfig(num_docs=40, min_tokens=90, max_tokens=120)
    for note in generate_synthetic_corpus(config, seed=2):
        m = len(note.assembled_text.split())
        assert 90 <= m <= 120
        assert note.assembled_text == reference_assembly(note.sections)


def test_generator_config_errors():
    with pytest.raises(ConfigError):
        GeneratorConfig(num_docs=10, min_tokens=5, max_tokens=20, signal_length=8)
    with pytest.raises(ConfigError):
        GeneratorConfig(num_docs=0)
    with pytest.raises(ConfigError):
        GeneratorConfig(num_docs=10, placement="middle")
    with pytest.raises(ConfigError):
        GeneratorConfig(num_docs=10, min_tokens=300, max_tokens=400,
                        placement="boundary", boundary_period=510)


@pytest.mark.parametrize("changes", [
    # a 1-token signal has no offset that crosses a boundary
    {"signal_length": 1, "placement": "boundary", "straddle_prob": 1.0},
    {"filler_vocab_size": 0},
    # filler words are ordered pairs of the 70 consonant-vowel syllables
    {"filler_vocab_size": FILLER_VOCAB_LIMIT + 1},
])
def test_generator_refuses_what_it_cannot_generate(changes):
    with pytest.raises(ConfigError) as raised:
        GeneratorConfig(num_docs=4, min_tokens=600, max_tokens=700, **changes)
    assert raised.value.exit_code == 1


def test_one_token_signal_may_avoid_boundaries():
    config = GeneratorConfig(num_docs=4, min_tokens=600, max_tokens=700, signal_length=1,
                             placement="boundary", straddle_prob=0.0)
    assert len(generate_synthetic_corpus(config, seed=0)) == 4


def test_full_document_scan_separates_classes_perfectly():
    config = GeneratorConfig(num_docs=120, min_tokens=150, max_tokens=300)
    notes = generate_synthetic_corpus(config, seed=13)
    pattern = signal_pattern(config.signal_length)
    scores = [
        1.0 if find_pattern(n.assembled_text.split(), pattern) else 0.0
        for n in notes
    ]
    labels = [n.mortality_label for n in notes]
    assert auc(scores, labels) == 1.0


def test_offset_distribution_uniform():
    config = GeneratorConfig(num_docs=10000, min_tokens=200, max_tokens=400,
                             positive_fraction=1.0, signal_length=12)
    notes = generate_synthetic_corpus(config, seed=11)
    pattern = signal_pattern(12)
    deciles = [0] * 10
    for note in notes:
        tokens = note.assembled_text.split()
        (offset,) = find_pattern(tokens, pattern)
        span = len(tokens) - 12
        deciles[min(int(offset / span * 10), 9)] += 1
    result = stats.chisquare(deciles)
    assert result.pvalue > 0.01, deciles


def test_signal_tokens_enter_vocabulary():
    config = GeneratorConfig(num_docs=10000, min_tokens=200, max_tokens=400,
                             signal_length=12)
    notes = generate_synthetic_corpus(config, seed=3)
    vocab = build_vocabulary([n.assembled_text for n in notes], max_size=5000)
    for token in signal_pattern(12):
        assert token in vocab.token_to_id


def test_boundary_placement_straddles_half_the_time():
    config = GeneratorConfig(num_docs=400, min_tokens=1100, max_tokens=1500,
                             positive_fraction=1.0, signal_length=60,
                             placement="boundary", boundary_period=510,
                             straddle_prob=0.5)
    notes = generate_synthetic_corpus(config, seed=3)
    pattern = signal_pattern(60)
    straddled = 0
    for note in notes:
        tokens = note.assembled_text.split()
        (offset,) = find_pattern(tokens, pattern)
        next_boundary = (offset // 510 + 1) * 510
        straddled += next_boundary < offset + 60
    assert 0.40 <= straddled / 400 <= 0.60


def test_off_boundary_placement_always_succeeds():
    # Only 4 of the 592 offsets of a 509-token signal in 1100 tokens avoid
    # a multiple of 510, so 1000 uniform tries miss on some notes.
    config = GeneratorConfig(num_docs=400, min_tokens=1100, max_tokens=1100,
                             signal_length=509, placement="boundary",
                             straddle_prob=0.0)
    notes = generate_synthetic_corpus(config, seed=11)
    assert len(notes) == 400
    pattern = signal_pattern(509)
    for note in notes:
        hits = find_pattern(note.assembled_text.split(), pattern)
        assert len(hits) == note.mortality_label
        for offset in hits:
            assert offset // 510 == (offset + 508) // 510, (note.note_id, offset)
    assert notes == reference_generate_synthetic_corpus(config, seed=11)


# ---------------------------------------------------------------------------
# The generator's random stream


def reference_choose_offset(rng, m, config):
    length, period = config.signal_length, config.boundary_period
    if config.placement == "uniform":
        return rng.randint(0, m - length)
    if rng.random() < config.straddle_prob:
        b = rng.choice(list(range(period, m, period)))
        return rng.randint(max(0, b - length + 1), min(b - 1, m - length))
    for _ in range(1000):
        offset = rng.randint(0, m - length)
        if not _straddles(offset, length, period):
            return offset
    return rng.choice([o for o in range(m - length + 1) if not _straddles(o, length, period)])


def reference_generate_synthetic_corpus(config, seed):
    """The generator drawing from ``random.Random`` itself, one call per
    token: the oracle for the numpy replay of its stream."""
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
            offset = reference_choose_offset(rng, m, config)
            tokens[offset : offset + config.signal_length] = pattern
        notes.append(ClinicalNote(note_id=f"syn-{i:05d}", sections=_into_sections(tokens),
                                  mortality_label=label))
    return notes


SEEDS = st.sampled_from([0, -1, -(2**63), 2**63 - 1]) | st.integers(-(2**64), 2**64)
# n just above a power of two rejects almost half of its draws
BOUNDS = st.integers(0, 31).map(lambda e: 2**e + 1) | st.integers(1, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(SEEDS, BOUNDS, st.integers(-1000, 1000), st.integers(1, 70), st.integers(0, 300))
def test_replayed_primitives_match_random(seed, n, a, size, k):
    ours, theirs = _ReplayedRandom(seed), random.Random(seed)
    for _ in range(8):
        assert ours.randbelow(n) == theirs._randbelow(n)
    assert ours.randint(a, a + n - 1) == theirs.randint(a, a + n - 1)
    assert ours.random() == theirs.random()
    seq = list(range(size))
    assert ours.choice(seq) == theirs.choice(seq)
    mine, yours = list(seq), list(seq)
    ours.shuffle(mine)
    theirs.shuffle(yours)
    assert mine == yours
    words = _filler_vocabulary(size)
    assert ours.choices(np.array(words, dtype=object), k) == theirs.choices(words, k=k)
    # still in step after every kind of draw
    assert ours.random() == theirs.random()


def test_replay_refuses_draws_it_does_not_mirror():
    rng = _ReplayedRandom(0)
    for n in (0, 2**32):
        with pytest.raises(ContractError):
            rng.randbelow(n)


@st.composite
def generator_configs(draw):
    placement = draw(st.sampled_from(["uniform", "boundary"]))
    period = draw(st.integers(3, 60))
    straddle_prob = draw(st.floats(0.0, 1.0))
    lowest_signal = 2 if placement == "boundary" and straddle_prob > 0 else 1
    signal_length = draw(st.integers(lowest_signal, period - 1))
    lowest_doc = period + 1 if placement == "boundary" else signal_length
    min_tokens = draw(st.integers(lowest_doc, lowest_doc + 150))
    return GeneratorConfig(
        num_docs=draw(st.integers(1, 8)),
        min_tokens=min_tokens,
        max_tokens=draw(st.integers(min_tokens, min_tokens + 150)),
        signal_length=signal_length,
        positive_fraction=draw(st.floats(0.0, 1.0)),
        placement=placement,
        boundary_period=period,
        straddle_prob=straddle_prob,
        filler_vocab_size=draw(st.integers(1, FILLER_VOCAB_LIMIT)),
    )


@settings(max_examples=150, deadline=None)
@given(generator_configs(), SEEDS)
def test_generator_replays_random_stream(config, seed):
    assert generate_synthetic_corpus(config, seed) == reference_generate_synthetic_corpus(
        config, seed
    )


def corpus_digest(notes):
    digest = hashlib.sha256()
    for note in notes:
        row = [note.note_id, note.sections, note.mortality_label, note.los_days]
        digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name, expected", [
    ("compare_synthetic", "498cc4ec90b5748a40263c8ae95dc18a333f53a465015be6bca0328273f742d7"),
    ("ordering", "70366d567ca690011eb5dddf3d2da4b9d1a16efada4f12769a070dff1a7c6cb1"),
    ("overlap_pattern", "25ae4051c9cba2c62170e13477bea601b0069f1c5479229efa00b1cd7efc8961"),
    ("remote_ensemble", "68a4975d194b42a8f8bc5ab723b306411f1564c54f697fd6499bea9a9cdbef82"),
])
def test_shipped_corpora_keep_their_bytes(name, expected):
    """Recorded from the ``random.Random`` generator: each shipped config's
    corpus, as its run draws it from the config's seed."""
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json", [])
    assert corpus_digest(_load_notes(config)) == expected


def reference_find_pattern(tokens, pattern):
    """The O(n*m) scan ``find_pattern`` replaced, kept as its oracle."""
    limit = len(tokens) - len(pattern)
    return [
        i
        for i in range(limit + 1)
        if all(tokens[i + j] == pattern[j] for j in range(len(pattern)))
    ]


def test_find_pattern_oracle():
    assert find_pattern(list("abcabc"), list("abc")) == [0, 3]
    assert find_pattern(list("aaaa"), list("aa")) == [0, 1, 2]
    assert find_pattern("aaaa", "aa") == [0, 1, 2]
    assert find_pattern(list("xyz"), list("zz")) == []
    assert find_pattern((4, 5, 6), (4, 5, 6, 7)) == []  # pattern longer than tokens
    assert find_pattern((9, 4, 5, 4, 5), (4, 5)) == [1, 3]  # match at the last offset
    assert find_pattern([7], (7,)) == [0]
    with pytest.raises(ContractError):
        find_pattern(list("abc"), [])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 2), max_size=30),
    st.lists(st.integers(0, 2), min_size=1, max_size=5),
)
def test_find_pattern_matches_quadratic_oracle(tokens, pattern):
    want = reference_find_pattern(tokens, pattern)
    assert find_pattern(tokens, pattern) == want
    assert find_pattern(tuple(tokens), pattern) == want
    assert find_pattern([f"w{i}" for i in tokens], [f"w{i}" for i in pattern]) == want
    text, sub = ("".join("abc"[i] for i in seq) for seq in (tokens, pattern))
    assert find_pattern(text, sub) == want
