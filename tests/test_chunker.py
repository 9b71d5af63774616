import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfuse.chunker import Chunk, ChunkingConfig, chunk, coverage_check
from chunkfuse.errors import ConfigError, ContractError
from chunkfuse.tokenizer import CLS_ID, SEP_ID


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
    with pytest.raises(ConfigError, match=f"^{field} must be an int") as raised:
        ChunkingConfig(**{"capacity": 30, "overlap": 5, field: value})
    assert raised.value.exit_code == 1


def test_thousand_token_spans():
    cfg = ChunkingConfig()
    chunks = chunk(list(range(100, 1100)), cfg)
    assert [(c.start, c.end) for c in chunks] == [(0, 510), (460, 970), (920, 1000)]
    assert [c.index for c in chunks] == [0, 1, 2]
    assert len(chunks[0]) == 512  # 510 content tokens plus the frame
    assert len(chunks[-1]) == 82


def test_empty_input_yields_frame_only_chunk():
    cfg = ChunkingConfig()
    chunks = chunk([], cfg)
    assert chunks == [Chunk(index=0, start=0, end=0, ids=(2, 3))]
    coverage_check([], chunks, cfg)


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
        rebuilt = list(chunks[0].ids[1:-1])
        for c in chunks[1:]:
            rebuilt.extend(c.ids[1 + cfg.overlap : -1])
        assert rebuilt == ids
        assert 0 < chunks[-1].end - chunks[-1].start <= capacity
    else:
        assert len(chunks) == 1


@settings(max_examples=100)
@given(token_seqs)
def test_zero_overlap_partitions_input(ids):
    cfg = ChunkingConfig(capacity=7, overlap=0)
    chunks = chunk(ids, cfg)
    flat = [t for c in chunks for t in c.ids[1:-1]]
    assert flat == ids


def test_coverage_check_rejects_tampering():
    cfg = ChunkingConfig(capacity=5, overlap=2)
    ids = list(range(10, 22))
    chunks = chunk(ids, cfg)
    with pytest.raises(ContractError):
        coverage_check(ids, chunks[:-1], cfg)
    with pytest.raises(ContractError):
        coverage_check(ids, [], cfg)
    broken = list(chunks)
    c = broken[0]
    broken[0] = Chunk(index=c.index, start=c.start, end=c.end, ids=c.ids[:-1] + (99,))
    with pytest.raises(ContractError):
        coverage_check(ids, broken, cfg)
    wrong_span = list(chunks)
    c = wrong_span[1]
    wrong_span[1] = Chunk(index=c.index, start=c.start + 1, end=c.end, ids=c.ids)
    with pytest.raises(ContractError):
        coverage_check(ids, wrong_span, cfg)
