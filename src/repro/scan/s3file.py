"""Random-access file over the simulated S3 (paper §4.3.2).

Implements the "user-level filesystem interface" the paper builds for the
Parquet library: a read-at/seek/read file object whose reads are served by
ranged GET requests. Reads are chunk-aligned and cached, so the request count
for a scan follows the chunk-size trade-off of Fig 7, and the footer is
prefetched with a single request ("the library loads this metadata with a
single file read").
"""
from __future__ import annotations

from ..s3.store import S3Client

DEFAULT_CHUNK_BYTES = 1 << 20  # 1 MiB: the paper's sweet spot with >=4 connections
DEFAULT_FOOTER_HINT = 1 << 16  # 64 KiB footer prefetch


class S3RandomAccessFile:
    """File-like object for pyarrow over :class:`S3Client`.

    * reads are rounded out to ``chunk_bytes``-aligned ranges, each fetched
      with one GET and cached (an LRU would bound memory; files here are
      <= a few hundred MB so we keep all fetched chunks),
    * the last ``footer_hint`` bytes are fetched with a single GET on first
      touch, so Parquet footer + metadata parsing costs one request; once
      they are held, a chunk GET ends where they begin, so a scan downloads
      no byte twice (a cold sequential read still takes one GET per chunk).
    """

    def __init__(
        self,
        client: S3Client,
        bucket: str,
        key: str,
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        footer_hint: int = DEFAULT_FOOTER_HINT,
    ):
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be positive")
        self._client = client
        self._bucket = bucket
        self._key = key
        self._chunk = chunk_bytes
        self._size = client.head(bucket, key)
        self._pos = 0
        self._chunks: dict[int, bytes] = {}
        self._footer_start = max(0, self._size - footer_hint)
        self._footer: bytes | None = None
        self.closed = False

    # -- python file protocol (what pyarrow's PythonFile needs) ------------
    def readable(self) -> bool:
        return True

    def writable(self) -> bool:
        return False

    def seekable(self) -> bool:
        return True

    def size(self) -> int:
        return self._size

    def tell(self) -> int:
        return self._pos

    def seek(self, offset: int, whence: int = 0) -> int:
        if whence == 0:
            self._pos = offset
        elif whence == 1:
            self._pos += offset
        elif whence == 2:
            self._pos = self._size + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if self._pos < 0:
            raise ValueError("negative seek position")
        return self._pos

    def read(self, nbytes: int = -1) -> bytes:
        if nbytes is None or nbytes < 0:
            nbytes = self._size - self._pos
        data = self.read_at(self._pos, nbytes)
        self._pos += len(data)
        return data

    def close(self) -> None:
        self.closed = True
        self._chunks.clear()

    # -- ranged access ------------------------------------------------------
    def read_at(self, offset: int, nbytes: int) -> bytes:
        """ReadAt interface (paper: "a random-access interface (through
        ReadAt ...) which supports multiple concurrent reads")."""
        if offset >= self._size or nbytes <= 0:
            return b""
        end = min(offset + nbytes, self._size)
        if offset >= self._footer_start:
            if self._footer is None:
                self._footer = self._client.get(
                    self._bucket, self._key, offset=self._footer_start
                )
            rel = offset - self._footer_start
            return self._footer[rel : rel + (end - offset)]
        if self._footer is not None and end > self._footer_start:
            # the footer GET already holds the tail: chunk GETs stop short of it
            split = self._footer_start
            return self.read_at(offset, split - offset) + self.read_at(split, end - split)
        first = offset // self._chunk
        last = (end - 1) // self._chunk
        parts = []
        for ci in range(first, last + 1):
            parts.append(self._chunk_data(ci))
        blob = b"".join(parts)
        rel = offset - first * self._chunk
        return blob[rel : rel + (end - offset)]

    def _chunk_data(self, ci: int) -> bytes:
        data = self._chunks.get(ci)
        if data is None:
            start = ci * self._chunk
            limit = self._size if self._footer is None else self._footer_start
            length = min(self._chunk, limit - start)
            data = self._client.get(self._bucket, self._key, offset=start, length=length)
            self._chunks[ci] = data
        return data
