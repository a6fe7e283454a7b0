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


def max_frame_bytes(table: pa.Table, batches: int) -> int:
    """An upper bound on ``len(frame_to_bytes(t))`` for every table ``t``
    that holds some of ``table``'s rows in at most ``batches`` record batches
    (:func:`frame_to_bytes` writes one batch per chunk). It sums:

    * the stream of the empty schema: the schema message and end marker;
    * ``table.nbytes``, plus one validity byte per 8 rows of each column:
      the most any subset of its rows holds;
    * per batch, the stream bytes of a one-row all-null batch (at least any
      batch's metadata), plus 64 bytes per buffer: the most a batch adds to
      its rows' bytes, since the writer writes a buffer rounded up to 64
      bytes at most, and each batch repeats one offset of a string column.
    """
    null_row = pa.table([pa.nulls(1, f.type) for f in table.schema], schema=table.schema)
    empty = len(frame_to_bytes(table.schema.empty_table()))
    n_buffers = sum(len(c.chunk(0).buffers()) for c in null_row.columns)
    per_batch = len(frame_to_bytes(null_row)) - empty + 64 * n_buffers
    validity = table.num_columns * -(-table.num_rows // 8)
    return empty + table.nbytes + validity + batches * per_batch


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
