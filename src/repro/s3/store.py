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

#: Keys and bucket names must be safe to use as relative filesystem paths.
#: Both are matched whole (``fullmatch``: ``$`` would accept a final newline);
#: a bucket name is one path component that cannot be ``.`` or ``..``.
_KEY_RE = re.compile(r"[A-Za-z0-9._:,=+-][A-Za-z0-9._:,=+/-]*")
_BUCKET_RE = re.compile(r"[a-z0-9][a-z0-9.-]{0,62}")


def _check_bucket(name: str) -> None:
    if not _BUCKET_RE.fullmatch(name):
        raise ValueError(f"invalid bucket name {name!r}")


class NoSuchKey(KeyError):
    """GET/HEAD on a key that does not exist (S3's 404)."""


class NoSuchBucket(KeyError):
    """Request against a bucket that was never created."""


@dataclasses.dataclass
class Ledger:
    """Request accounting for one client: counts, bytes, per-bucket counts.

    ``per_bucket`` maps bucket name -> {op: count} (S3 limits are per
    bucket/prefix). Only the tests' per-bucket throttle model reads it
    today; it is kept for the fault-injecting store of ROADMAP item 3.
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
        _check_bucket(name)
        (self.root / name).mkdir(exist_ok=True)

    def client(self) -> "S3Client":
        """A fresh client with an empty ledger (one per worker/driver)."""
        return S3Client(self.root)


class S3Client:
    """Request interface with ledger accounting. One instance per worker.

    Paths are plain strings and every GET is one ``os.open``/``os.pread``/
    ``os.close``: a scan issues thousands of small ranged GETs, so the
    request path stays lean. Every request checks the bucket's and the
    key's names first, so none reaches outside its bucket. GET and HEAD look
    at the bucket itself only when the object is missing; PUT and LIST check
    that it exists first, so a PUT never creates a bucket. No file
    descriptor outlives its request."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        self.ledger = Ledger()

    # -- helpers ---------------------------------------------------------
    def _bucket(self, bucket: str) -> str:
        _check_bucket(bucket)
        base = os.path.join(self.root, bucket)
        if not os.path.isdir(base):
            raise NoSuchBucket(bucket)
        return base

    def _path(self, bucket: str, key: str) -> str:
        _check_bucket(bucket)
        if not _KEY_RE.fullmatch(key) or ".." in key:
            raise ValueError(f"invalid key {key!r}")
        return os.path.join(self.root, bucket, key)

    def _missing(self, bucket: str, key: str) -> KeyError:
        """The error for an object that is not there: its bucket's or its own."""
        if not os.path.isdir(os.path.join(self.root, bucket)):
            return NoSuchBucket(bucket)
        return NoSuchKey(f"{bucket}/{key}")

    # -- requests --------------------------------------------------------
    def put(self, bucket: str, key: str, data: bytes) -> None:
        """PUT an object. Atomic (write-then-rename), and LIST skips the
        temporary file, so a key is listed only once its object is complete.
        The exchange runner relies on both: a LIST of a group prefix finds
        every sender's key, and each listed key reads back in full."""
        self._bucket(bucket)
        path = self._path(bucket, key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-" + uuid.uuid4().hex)
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
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            raise self._missing(bucket, key) from None
        try:
            if length is None:
                length = max(0, os.fstat(fd).st_size - offset)
            data = os.pread(fd, length, offset)
        finally:
            os.close(fd)
        self.ledger.record("gets", bucket, len(data))
        return data

    def head(self, bucket: str, key: str) -> int:
        """HEAD: object size in bytes."""
        path = self._path(bucket, key)
        try:
            size = os.stat(path).st_size
        except FileNotFoundError:
            raise self._missing(bucket, key) from None
        self.ledger.record("heads", bucket)
        return size

    def list(self, bucket: str, prefix: str = "") -> list[str]:
        """LIST keys under a prefix (sorted, as S3 returns them).

        Walks only the directory named by the prefix up to its last ``/``,
        so a LIST costs what it can return, not what the bucket holds (an
        exchange's buckets keep every level and every earlier run). The
        rest of the prefix filters by string: ``p/o`` lists ``p/one``, and
        ``p`` lists ``pq/x`` too. A directory part that no key can have
        (``..``, or an absolute path) lists nothing."""
        base = self._bucket(bucket)
        head = prefix.rpartition("/")[0]
        keys = []
        if not head or (_KEY_RE.fullmatch(head) and ".." not in head):
            for dirpath, _, names in os.walk(os.path.join(base, head)):
                rel = os.path.relpath(dirpath, base).replace(os.sep, "/")
                for name in names:
                    k = name if rel == "." else f"{rel}/{name}"
                    if not name.startswith(".tmp-") and k.startswith(prefix):
                        keys.append(k)
        self.ledger.record("lists", bucket)
        return sorted(keys)
