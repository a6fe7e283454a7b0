"""Fig 7: chunk-size / connection-count trade-off for S3 scans.

Model sweep plus a *real* request-count check: the scan's chunk-fetch function
reads a whole object over the simulated S3, one ranged GET per chunk.

Usage: python jobs/figure7_chunking.py
"""
import tempfile

import numpy as np
from _common import print_table

from repro.s3.store import S3Store
from repro.scan import chunking
from repro.scan.s3file import fetch_chunks


def main() -> None:
    rows = [
        {
            "chunk": p.chunk_bytes,
            "connections": p.n_connections,
            "bandwidth_MiB_s": p.bandwidth_bytes_s / 2**20,
            "requests": p.n_requests,
            "request_usd_per_1k_scans": p.request_cost_usd * 1000,
            "req_over_worker_cost": p.request_to_worker_cost_ratio,
        }
        for p in chunking.sweep()
    ]
    print_table(rows, "Fig 7: downloading 1 GB with varying chunk size / connections (model)")
    print("paper: 1 connection needs 16 MB chunks for ~max bandwidth; 4 connections reach it at 1 MB;")
    print("       at 1 MiB chunks the requests cost ~1.7x the workers")

    # real request counting: fetch a 32 MiB object whole, with no footer window
    store = S3Store(tempfile.mkdtemp(prefix="lambada-chunk-"))
    store.create_bucket("chunk")
    client = store.client()
    client.put("chunk", "blob", b"\x00" * (32 * 2**20))
    counted = []
    for chunk in (2**18, 2**20, 2**22):
        c2 = store.client()
        size = c2.head("chunk", "blob")
        image = np.zeros(size, np.uint8)
        fetch_chunks(c2, "chunk", "blob", image, [(0, size)], set(), chunk_bytes=chunk, limit=size)
        counted.append({"chunk": chunk, "gets": c2.ledger.gets, "heads": c2.ledger.heads})
    print_table(counted, "Counted GETs reading a 32 MiB object (requests ~ size/chunk)")


if __name__ == "__main__":
    main()
