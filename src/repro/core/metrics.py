"""Per-worker and per-query execution metrics.

Workers report these through the result queue (here: the ``qresults``
bucket) exactly like the paper's event handler posts success/error messages
to SQS. One :class:`WorkerMetrics` holds all of a worker's counters: the
Parquet scan counts into it directly.
The simulation layer turns them into paper-scale latencies and dollar costs.
"""
from __future__ import annotations

import dataclasses
import json

from ..s3.store import Ledger


@dataclasses.dataclass
class WorkerMetrics:
    """Everything one serverless worker did during its fragment."""

    worker_id: int
    n_files: int = 0
    status: str = "ok"  # "ok" | "error"
    error: str = ""
    # counted by the Parquet scan
    row_groups_total: int = 0
    row_groups_scanned: int = 0
    rows_read: int = 0
    rows_out: int = 0
    compressed_bytes: int = 0
    uncompressed_bytes: int = 0
    wall_time_s: float = 0.0  # real local wall time (informational only)
    ledger: dict = dataclasses.field(default_factory=dict)

    @property
    def pruned_all(self) -> bool:
        return self.row_groups_scanned == 0

    def ledger_obj(self) -> Ledger:
        return Ledger(**self.ledger) if self.ledger else Ledger()

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, s: str) -> "WorkerMetrics":
        return cls(**json.loads(s))


@dataclasses.dataclass
class QueryMetrics:
    """Aggregated view over all workers of one query."""

    workers: list

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def n_pruned(self) -> int:
        return sum(1 for w in self.workers if w.pruned_all)

    @property
    def total_ledger(self) -> Ledger:
        total = Ledger()
        for w in self.workers:
            total.merge(w.ledger_obj())
        return total
