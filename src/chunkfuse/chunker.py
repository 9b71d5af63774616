"""Sliding-window chunking of token id sequences.

Long token sequences are cut into fixed-capacity windows that advance
left to right by ``capacity - overlap`` positions, so consecutive chunks
share exactly ``overlap`` content tokens. Each window is framed with a
leading [CLS] id and a trailing [SEP] id (the tokenizer's reserved ids);
the final window keeps its natural length instead of being padded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, ContractError, conforms
from .tokenizer import CLS_ID, SEP_ID


@dataclass(frozen=True)
class ChunkingConfig:
    """Window geometry."""

    capacity: int = 510
    overlap: int = 50

    def __post_init__(self) -> None:
        for name in ("capacity", "overlap"):
            value = getattr(self, name)
            if not conforms(int, value):
                raise ConfigError(f"{name} must be an int, got {value!r}")
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
    """One framed window: ids = [CLS_ID, *content, SEP_ID].

    ``start``/``end`` give the half-open content span in the source
    sequence, so ``ids[1:-1] == token_ids[start:end]``.
    """

    index: int
    start: int
    end: int
    ids: tuple[int, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.ids)


def chunk(token_ids: list[int] | tuple[int, ...], config: ChunkingConfig) -> list[Chunk]:
    """Split ``token_ids`` into framed overlapping windows.

    An empty sequence still yields one chunk holding only the frame, so
    every note produces at least one scoreable unit. A new window is
    emitted only while it would contain at least one unseen token; the
    final window is left at its natural length.
    """
    n = len(token_ids)
    if n == 0:
        return [Chunk(index=0, start=0, end=0, ids=(CLS_ID, SEP_ID))]
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + config.capacity, n)
        content = tuple(token_ids[start:end])
        chunks.append(
            Chunk(
                index=len(chunks),
                start=start,
                end=end,
                ids=(CLS_ID, *content, SEP_ID),
            )
        )
        if end >= n:
            return chunks
        start += config.stride


def coverage_check(
    token_ids: list[int] | tuple[int, ...], chunks: list[Chunk], config: ChunkingConfig
) -> None:
    """Verify that ``chunks`` tile ``token_ids`` per the window contract.

    Raises ContractError on any violation: bad framing, spans that do not
    match the source, gaps, wrong overlap width, or a short interior
    window. Used as a self-check after chunking untrusted inputs.
    """
    n = len(token_ids)
    if not chunks:
        raise ContractError("chunking must produce at least one chunk")
    if n == 0:
        only = chunks[0]
        if len(chunks) != 1 or only.ids != (CLS_ID, SEP_ID):
            raise ContractError("empty input must yield exactly one frame-only chunk")
        return
    for c in chunks:
        if c.ids[0] != CLS_ID or c.ids[-1] != SEP_ID:
            raise ContractError(f"chunk {c.index} is missing its frame")
        if c.ids[1:-1] != tuple(token_ids[c.start : c.end]):
            raise ContractError(f"chunk {c.index} content does not match its span")
    if chunks[0].start != 0:
        raise ContractError("first chunk must start at position 0")
    if chunks[-1].end != n:
        raise ContractError("last chunk must end at the sequence end")
    for left, right in zip(chunks, chunks[1:]):
        if left.end - right.start != config.overlap:
            raise ContractError(
                f"chunks {left.index}/{right.index} overlap by {left.end - right.start},"
                f" expected {config.overlap}"
            )
        if left.end - left.start != config.capacity:
            raise ContractError(f"interior chunk {left.index} is not at full capacity")
