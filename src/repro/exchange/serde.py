"""Partition payload serialisation: Arrow IPC streams.

The paper's workers exchange their in-memory columnar format; Arrow IPC is
the faithful analogue (zero-copy columnar, exact type round-trip, cheap
concatenation of parts into a combined file by byte offsets).
"""
from __future__ import annotations

import pyarrow as pa


def frame_to_bytes(table: pa.Table) -> bytes:
    """Serialise a (possibly empty) table; its schema survives the round trip."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()


def bytes_to_frame(data: bytes) -> pa.Table:
    with pa.ipc.open_stream(data) as r:
        return r.read_all()


def combine(parts: list[bytes]) -> tuple[bytes, list[int]]:
    """Concatenate part payloads into one blob; returns (blob, part lengths).

    Offsets are the running sums of the lengths — what the combined-file name
    communicates to receivers.
    """
    return b"".join(parts), [len(p) for p in parts]


def part_range(lengths: list[int], index: int) -> tuple[int, int]:
    """(offset, length) of part ``index`` inside a combined blob."""
    return sum(lengths[:index]), lengths[index]
