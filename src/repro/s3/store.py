"""Simulated Amazon S3 object store over the local filesystem.

The paper's claims about S3 concern *requests* — their count, price, and
per-bucket rate limits — plus per-worker bandwidth. This store provides the
functional surface Lambada needs (atomic PUT, ranged GET, prefix LIST, HEAD)
and a per-client :class:`Ledger` that records every request
so experiments can account costs exactly. Bandwidth/latency are *not* enforced
in wall-clock; they are applied by the simulation layer (``repro.sim``) from
the ledgers.

Workers running inside Spark tasks construct their own :class:`S3Client` from
the store's root path (a plain string, picklable into closures); because the
session is ``local[*]``, all tasks share one filesystem, which plays the role
of the shared-storage data plane.
"""
from __future__ import annotations

import dataclasses
import os
import re
import tempfile
import uuid
from pathlib import Path

#: Keys must be safe to use as relative filesystem paths.
_KEY_RE = re.compile(r"^[A-Za-z0-9._:,=+-][A-Za-z0-9._:,=+/-]*$")
_BUCKET_RE = re.compile(r"^[a-z0-9][a-z0-9.-]{0,62}$")


class NoSuchKey(KeyError):
    """GET/HEAD on a key that does not exist (S3's 404)."""


class NoSuchBucket(KeyError):
    """Request against a bucket that was never created."""


@dataclasses.dataclass
class Ledger:
    """Request accounting for one client: counts, bytes, per-bucket counts.

    ``per_bucket`` maps bucket name -> {op: count} and is what the rate-limit
    model consumes (S3 limits are per bucket/prefix).
    """

    gets: int = 0
    puts: int = 0
    lists: int = 0
    heads: int = 0
    deletes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    per_bucket: dict = dataclasses.field(default_factory=dict)

    _OPS = ("gets", "puts", "lists", "heads", "deletes")

    def record(self, op: str, bucket: str, nbytes: int = 0) -> None:
        if op not in self._OPS:
            raise ValueError(f"unknown op {op!r}")
        setattr(self, op, getattr(self, op) + 1)
        if op == "gets":
            self.bytes_read += nbytes
        elif op == "puts":
            self.bytes_written += nbytes
        b = self.per_bucket.setdefault(bucket, {})
        b[op] = b.get(op, 0) + 1

    @property
    def requests(self) -> int:
        """Total number of billable requests."""
        return self.gets + self.puts + self.lists + self.heads + self.deletes

    def merge(self, other: "Ledger") -> "Ledger":
        """Fold ``other`` into ``self`` (returns self for chaining)."""
        for op in self._OPS:
            setattr(self, op, getattr(self, op) + getattr(other, op))
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        for bucket, ops in other.per_bucket.items():
            mine = self.per_bucket.setdefault(bucket, {})
            for op, n in ops.items():
                mine[op] = mine.get(op, 0) + n
        return self


class S3Store:
    """A root directory acting as an S3 endpoint; buckets are subdirectories."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def create_bucket(self, name: str) -> None:
        """Buckets are created at installation time (paper §4.4.1) — free."""
        if not _BUCKET_RE.match(name):
            raise ValueError(f"invalid bucket name {name!r}")
        (self.root / name).mkdir(exist_ok=True)

    def client(self) -> "S3Client":
        """A fresh client with an empty ledger (one per worker/driver)."""
        return S3Client(self.root)


class S3Client:
    """Request interface with ledger accounting. One instance per worker."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.ledger = Ledger()

    # -- helpers ---------------------------------------------------------
    def _path(self, bucket: str, key: str) -> Path:
        if not (self.root / bucket).is_dir():
            raise NoSuchBucket(bucket)
        if not _KEY_RE.match(key) or ".." in key:
            raise ValueError(f"invalid key {key!r}")
        return self.root / bucket / key

    # -- requests --------------------------------------------------------
    def put(self, bucket: str, key: str, data: bytes) -> None:
        """PUT an object. Atomic (write-then-rename), and LIST skips the
        temporary file, so a key is listed only once its object is complete.
        The exchange runner relies on both: a LIST of a group prefix finds
        every sender's key, and each listed key reads back in full."""
        path = self._path(bucket, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-" + uuid.uuid4().hex)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.ledger.record("puts", bucket, len(data))

    def get(self, bucket: str, key: str, *, offset: int = 0, length: int | None = None) -> bytes:
        """GET an object or a byte range (HTTP Range header semantics)."""
        path = self._path(bucket, key)
        try:
            with open(path, "rb") as f:
                if offset:
                    f.seek(offset)
                data = f.read() if length is None else f.read(length)
        except FileNotFoundError:
            raise NoSuchKey(f"{bucket}/{key}") from None
        self.ledger.record("gets", bucket, len(data))
        return data

    def head(self, bucket: str, key: str) -> int:
        """HEAD: object size in bytes."""
        path = self._path(bucket, key)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            raise NoSuchKey(f"{bucket}/{key}") from None
        self.ledger.record("heads", bucket)
        return size

    def list(self, bucket: str, prefix: str = "") -> list[str]:
        """LIST keys under a prefix (sorted, as S3 returns them)."""
        base = self.root / bucket
        if not base.is_dir():
            raise NoSuchBucket(bucket)
        keys = []
        for p in base.rglob("*"):
            if p.is_file() and not p.name.startswith(".tmp-"):
                k = p.relative_to(base).as_posix()
                if k.startswith(prefix):
                    keys.append(k)
        self.ledger.record("lists", bucket)
        return sorted(keys)
