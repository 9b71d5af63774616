import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkfuse.chunker import Chunk, ChunkingConfig, chunk, coverage_check
from chunkfuse.errors import ConfigError, ContractError
from chunkfuse.tokenizer import CLS_ID, SEP_ID


def copying_chunk(token_ids, config):
    """The loop ``chunk`` replaced, kept as its oracle: it walked the windows
    and copied each one's framed ids. Returns ``(start, end, ids)`` triples."""
    n = len(token_ids)
    if n == 0:
        return [(0, 0, (CLS_ID, SEP_ID))]
    windows = []
    start = 0
    while True:
        end = min(start + config.capacity, n)
        windows.append((start, end, (CLS_ID, *token_ids[start:end], SEP_ID)))
        if end >= n:
            return windows
        start += config.stride


def expected_count(n, capacity, overlap):
    """Closed-form chunk count, derived independently of the implementation."""
    if n <= capacity:
        return 1
    stride = capacity - overlap
    return math.ceil((n - capacity) / stride) + 1


def test_default_config_geometry():
    cfg = ChunkingConfig()
    assert cfg.capacity == 510
    assert cfg.overlap == 50
    assert cfg.stride == 460


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        ChunkingConfig(capacity=0)
    with pytest.raises(ConfigError):
        ChunkingConfig(capacity=10, overlap=10)
    with pytest.raises(ConfigError):
        ChunkingConfig(capacity=10, overlap=-1)


@pytest.mark.parametrize("field", ["capacity", "overlap"])
@pytest.mark.parametrize("value", [30.5, 8.0, True, "8", None])
def test_non_int_fields_are_config_errors(field, value):
    # a Python caller gets exit code 1 here, not a TypeError mid-run
    with pytest.raises(ConfigError, match=f"^{field} must be a valid int") as raised:
        ChunkingConfig(**{"capacity": 30, "overlap": 5, field: value})
    assert raised.value.exit_code == 1


def test_thousand_token_spans():
    cfg = ChunkingConfig()
    ids = np.arange(100, 1100, dtype=np.int32)
    chunks = chunk(ids, cfg)
    assert [(c.start, c.end) for c in chunks] == [(0, 510), (460, 970), (920, 1000)]
    assert all(c.source is ids for c in chunks)  # shared, not copied
    assert len(chunks[0].ids) == 512  # 510 content tokens plus the frame
    assert len(chunks[-1].ids) == 82
    assert chunks[1].content.tolist() == list(range(560, 1070))


def test_empty_input_yields_frame_only_chunk():
    cfg = ChunkingConfig()
    chunks = chunk([], cfg)
    assert [(c.start, c.end) for c in chunks] == [(0, 0)]
    assert chunks[0].source.tolist() == []
    assert chunks[0].content.tolist() == [] and chunks[0].ids == (2, 3)
    coverage_check([], chunks, cfg)


def test_windows_compare_and_hash_by_identity():
    # same spans over equal arrays: field-wise equality would compare the
    # arrays and raise, and a field-wise hash cannot hash an array
    cfg = ChunkingConfig(capacity=4, overlap=1)
    ids = np.arange(4, 14, dtype=np.int32)
    first, again = chunk(ids, cfg), chunk(ids.copy(), cfg)
    assert first[0] == first[0] and first[0] != again[0]
    assert len({*first, *again}) == len(first) + len(again)


def test_exact_capacity_is_single_chunk():
    cfg = ChunkingConfig()
    assert len(chunk(list(range(510)), cfg)) == 1
    assert len(chunk(list(range(511)), cfg)) == 2


def test_framing_uses_reserved_ids():
    (only,) = chunk([5, 6, 7], ChunkingConfig(capacity=4, overlap=1))
    assert only.ids == (CLS_ID, 5, 6, 7, SEP_ID) == (2, 5, 6, 7, 3)


token_seqs = st.lists(st.integers(4, 30000), min_size=0, max_size=2500)
geometries = st.tuples(st.integers(1, 600), st.integers(0, 599)).filter(
    lambda t: t[1] < t[0]
)


@settings(max_examples=250)
@given(token_seqs, geometries)
def test_chunking_contract_properties(ids, geom):
    capacity, overlap = geom
    cfg = ChunkingConfig(capacity=capacity, overlap=overlap)
    chunks = chunk(ids, cfg)
    coverage_check(ids, chunks, cfg)
    if ids:
        assert len(chunks) == expected_count(len(ids), capacity, overlap)
        # stitching spans back together with overlaps dropped recovers the input
        rebuilt = list(chunks[0].content)
        for c in chunks[1:]:
            rebuilt.extend(c.content[cfg.overlap :])
        assert rebuilt == ids
        assert 0 < chunks[-1].end - chunks[-1].start <= capacity
    else:
        assert len(chunks) == 1


@settings(max_examples=100)
@given(token_seqs)
def test_zero_overlap_partitions_input(ids):
    cfg = ChunkingConfig(capacity=7, overlap=0)
    chunks = chunk(ids, cfg)
    flat = [t for c in chunks for t in c.content]
    assert flat == ids


@settings(max_examples=300)
@given(
    st.lists(st.integers(4, 30000), max_size=400),
    st.integers(1, 60).flatmap(lambda cap: st.tuples(st.just(cap), st.integers(0, cap - 1))),
)
@example([], (5, 2))  # empty input
@example(list(range(4, 14)), (10, 3))  # n == capacity
@example(list(range(4, 7)), (8, 5))  # n <= overlap
@example(list(range(4, 7)), (8, 3))  # n == overlap
@example(list(range(4, 40)), (5, 4))  # stride 1
def test_spans_and_derived_ids_match_copying_oracle(ids, geom):
    cfg = ChunkingConfig(capacity=geom[0], overlap=geom[1])
    chunks = chunk(ids, cfg)
    want = copying_chunk(ids, cfg)
    assert [(c.start, c.end) for c in chunks] == [(s, e) for s, e, _ in want]
    assert [c.ids for c in chunks] == [framed for _, _, framed in want]
    assert [c.content.tolist() for c in chunks] == [list(framed[1:-1]) for _, _, framed in want]
    # every window refers to one shared int32 array of the note's ids
    assert all(c.source is chunks[0].source for c in chunks)
    assert chunks[0].source.dtype == np.int32 and chunks[0].source.tolist() == ids


def spans(source, pairs):
    return [Chunk(start=s, end=e, source=source) for s, e in pairs]


def test_coverage_check_rejects_tampering():
    cfg = ChunkingConfig(capacity=5, overlap=2)
    ids = np.arange(10, 22, dtype=np.int32)
    chunks = chunk(ids, cfg)
    assert [(c.start, c.end) for c in chunks] == [(0, 5), (3, 8), (6, 11), (9, 12)]
    coverage_check(ids, chunks, cfg)
    coverage_check(ids.tolist(), chunks, cfg)  # the same ids as a list
    coverage_check(ids, chunk(ids.copy(), cfg), cfg)  # an equal copy
    short = ids[:5]
    other = np.arange(30, 42, dtype=np.int32)  # another note of the same length
    mixed = list(chunks)
    mixed[2] = dataclasses.replace(mixed[2], source=other)
    tampered = [
        ("not windows over this sequence", ids, chunk(other, cfg)),
        ("not windows over this sequence", ids, mixed),
        ("at least one chunk", ids, []),
        ("end at the sequence end", ids, chunks[:-1]),
        # a gap: the second window dropped
        ("overlap by -1", ids, spans(ids, [(0, 5), (6, 11), (9, 12)])),
        ("overlap by 1", ids, spans(ids, [(0, 5), (4, 9), (7, 12)])),
        # overlaps of 2 on both sides of a 4-token interior window
        ("interior chunk 2 is not at full capacity", ids,
         spans(ids, [(0, 5), (3, 8), (6, 10), (8, 12)])),
        ("first chunk must start", ids, spans(ids, [(1, 5), (3, 8), (6, 11), (9, 12)])),
        ("last chunk must end", ids, spans(ids, [(0, 5), (3, 8), (6, 11), (9, 11)])),
        ("wider than capacity", ids, spans(ids, [(0, 5), (3, 12)])),
        # a trailing window inside the one before it
        ("chunk 1 holds no unseen token", short, spans(short, [(0, 5), (3, 5)])),
    ]
    for message, sequence, windows in tampered:
        with pytest.raises(ContractError, match=message):
            coverage_check(sequence, windows, cfg)
