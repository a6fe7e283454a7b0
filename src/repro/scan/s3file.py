"""Chunk-aligned ranged GETs over the simulated S3 (paper §4.3.2, Fig 7).

The paper's Parquet scan reads through "a random-access interface (through
ReadAt ...)" whose reads are ranged GET requests of a fixed chunk size, so a
scan's request count follows the chunk-size trade-off of Fig 7. Here the scan
plans those requests itself: it GETs a file's last ``footer_hint`` bytes once
("the library loads this metadata with a single file read"), and then fetches
the byte ranges it decodes with :func:`fetch_chunks`, one GET per
``chunk_bytes``-aligned chunk.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from ..s3.store import S3Client

DEFAULT_CHUNK_BYTES = 1 << 20  # 1 MiB: the paper's sweet spot with >=4 connections
DEFAULT_FOOTER_HINT = 1 << 16  # 64 KiB footer prefetch


def fetch_chunks(
    client: S3Client,
    bucket: str,
    key: str,
    image: np.ndarray,
    ranges: Iterable[tuple[int, int]],
    held: set[int],
    *,
    chunk_bytes: int,
    limit: int,
) -> None:
    """GET every ``chunk_bytes``-aligned chunk of the object that the byte
    ranges ``ranges`` (``(start, end)`` pairs) cover below ``limit`` and
    whose index is not in ``held``, one GET per chunk, in offset order.

    Each GET ends at ``limit`` at most: the bytes from there on are held
    already (the scan's footer window), so no byte is downloaded twice. Each
    chunk is written into ``image``, a byte array of the object's size,
    at its own offset, and its index is added to ``held``.
    """
    wanted = set()
    for start, end in ranges:
        end = min(end, limit)
        if start < end:
            wanted.update(range(start // chunk_bytes, (end - 1) // chunk_bytes + 1))
    out = memoryview(image)
    for ci in sorted(wanted - held):
        offset = ci * chunk_bytes
        data = client.get(bucket, key, offset=offset, length=min(chunk_bytes, limit - offset))
        out[offset : offset + len(data)] = data
        held.add(ci)
