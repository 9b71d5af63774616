"""Sliding-window chunking of token id sequences.

Long token sequences are cut into fixed-capacity windows that advance
left to right by ``capacity - overlap`` positions, so consecutive chunks
share exactly ``overlap`` tokens; the final window keeps its natural
length instead of being padded. A window is a span over its note's id
tuple or int array; its framed ids, [CLS] + content + [SEP], are built on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, config_block
from .tokenizer import CLS_ID, SEP_ID


@config_block
class ChunkingConfig:
    """Window geometry."""

    capacity: int = 510
    overlap: int = 50

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")
        if not 0 <= self.overlap < self.capacity:
            raise ConfigError(
                f"overlap must be in [0, capacity), got overlap={self.overlap}"
                f" capacity={self.capacity}"
            )

    @property
    def stride(self) -> int:
        return self.capacity - self.overlap


@dataclass(frozen=True)
class Chunk:
    """One window: the span ``[start, end)`` of ``source``, its note's id
    tuple or int array, which every window of the note shares and none
    copies."""

    start: int
    end: int
    source: tuple[int, ...] | np.ndarray = field(repr=False)

    @property
    def content(self) -> tuple[int, ...]:
        return self.source[self.start : self.end]

    @property
    def ids(self) -> tuple[int, ...]:
        return (CLS_ID, *self.content, SEP_ID)


def chunk(
    token_ids: list[int] | tuple[int, ...] | np.ndarray, config: ChunkingConfig
) -> list[Chunk]:
    """Split ``token_ids`` into overlapping windows.

    Window ``k`` starts at ``k * stride`` and a new window is started only
    while it would hold at least one unseen token; the final window keeps
    its natural length. An empty sequence still yields the one window
    ``(0, 0)``, so every note produces at least one scoreable unit.
    """
    # a tuple or an array is shared as is, not copied
    source = token_ids if isinstance(token_ids, np.ndarray) else tuple(token_ids)
    n = len(source)
    return [
        Chunk(start=start, end=min(start + config.capacity, n), source=source)
        for start in range(0, max(n - config.overlap, 1), config.stride)
    ]


def coverage_check(
    token_ids: list[int] | tuple[int, ...] | np.ndarray,
    chunks: list[Chunk],
    config: ChunkingConfig,
) -> None:
    """Verify that ``chunks`` tile ``token_ids`` per the window contract.

    Raises ContractError unless every window is over this sequence, the
    first starts at 0, the last ends at its end, neighbours overlap by
    exactly ``overlap``, interior windows are at full capacity and end
    before the sequence does, and the last is no wider than capacity.
    Span arithmetic only, so the pipeline runs it on every chunked note.
    """
    n = len(token_ids)
    if not chunks:
        raise ContractError("chunking must produce at least one chunk")
    source = chunks[0].source
    if any(c.source is not source for c in chunks) or (
        source is not token_ids and tuple(source) != tuple(token_ids)
    ):
        raise ContractError("chunks are not windows over this sequence")
    first, last = chunks[0], chunks[-1]
    if first.start != 0:
        raise ContractError("first chunk must start at position 0")
    if last.end != n:
        raise ContractError("last chunk must end at the sequence end")
    if last.end - last.start > config.capacity:
        raise ContractError(f"last chunk {len(chunks) - 1} is wider than capacity")
    for i, (left, right) in enumerate(zip(chunks, chunks[1:])):
        if left.end - right.start != config.overlap:
            raise ContractError(
                f"chunks {i}/{i + 1} overlap by {left.end - right.start},"
                f" expected {config.overlap}"
            )
        if left.end - left.start != config.capacity:
            raise ContractError(f"interior chunk {i} is not at full capacity")
        if left.end >= n:
            raise ContractError(f"chunk {i + 1} holds no unseen token")
