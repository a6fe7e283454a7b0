"""File-naming schemes for the S3 exchange (paper §4.4, FORMATFILENAME).

Two tricks from the paper live here:

* **bucket spreading** (§4.4.1): encoding the group ID in the *bucket name*
  multiplies the per-bucket rate limit by the number of buckets; buckets are
  created at installation time and cost nothing;
* **offsets in the file name** (§4.4.3, write combining): a combined file's
  per-receiver part lengths are appended to its key, so receivers recover all
  offsets from a single LIST request. "file names are limited to 1 KiB", which
  bounds the group size this works for — enforced here.
"""
from __future__ import annotations

BUCKET_PREFIX = "xbkt"
MAX_KEY_BYTES = 1024  # S3 key length limit the paper cites


def exchange_buckets(n_buckets: int) -> list[str]:
    """Bucket names to create at installation time."""
    if n_buckets < 1:
        raise ValueError("need at least one bucket")
    return [f"{BUCKET_PREFIX}{i}" for i in range(n_buckets)]


def bucket_for_group(gid: int, n_buckets: int) -> str:
    """Spread groups over buckets (the receiver-ID-in-bucket-name trick)."""
    return f"{BUCKET_PREFIX}{gid % n_buckets}"


def group_prefix(run_id: str, level: int, gid: int) -> str:
    return f"{run_id}/l{level}/g{gid}/"


def part_key(run_id: str, level: int, gid: int, sender: int, receiver: int) -> str:
    """Plain (non-combined) partition file: one per sender-receiver pair."""
    return f"{group_prefix(run_id, level, gid)}s{sender}/r{receiver}"


def encode_lengths(lengths: list[int]) -> str:
    return "-".join(str(n) for n in lengths)


def decode_lengths(s: str) -> list[int]:
    return [int(x) for x in s.split("-")] if s else []


def combined_key(run_id: str, level: int, gid: int, sender: int, lengths: list[int]) -> str:
    """Write-combined file with part lengths encoded in the name."""
    key = f"{group_prefix(run_id, level, gid)}s{sender}.o{encode_lengths(lengths)}"
    if len(key.encode()) > MAX_KEY_BYTES:
        raise ValueError(
            f"key of {len(key)} chars exceeds the 1 KiB S3 limit; "
            "group too large for filename-encoded offsets (paper §4.4.3)"
        )
    return key


def parse_combined(key: str) -> tuple[int, list[int]]:
    """-> (sender coordinate, part lengths) from a combined-file key."""
    name = key.rsplit("/", 1)[-1]
    s, o = name.split(".o", 1)
    return int(s[1:]), decode_lengths(o)


def input_key(run_id: str, worker: int) -> str:
    """Initial per-worker input share (the relation R in Algorithm 1)."""
    return f"{run_id}/in/w{worker}"
