"""Dataset preparation: LINEITEM as sorted Parquet files in simulated S3.

Mirrors the paper's setup (§5.1): the LINEITEM relation, "sorted by
l_shipdate in order to show the effect of selection push downs", stored as N
gzip-compressed Parquet files with min/max statistics (the paper uses 320
files of ~500 MB at SF 1000; we scale the file count with the scale factor
and keep the layout properties — contiguous shipdate ranges per file and per
row group).

Returns both the file manifest (with per-column size statistics used by the
scaling models and the QaaS cost models) and the sorted pandas frame (the
DuckDB oracle's input).
"""
from __future__ import annotations

import dataclasses
import io
import os
from concurrent.futures import ThreadPoolExecutor

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import SparkSession

from .. import synth_data
from ..s3.store import S3Store


@dataclasses.dataclass
class DatasetInfo:
    """Manifest of a prepared table in the store."""

    bucket: str
    prefix: str
    keys: list
    n_rows: int
    n_files: int
    total_compressed_bytes: int
    total_uncompressed_bytes: int
    #: per column: (compressed bytes, uncompressed bytes) summed over files
    column_bytes: dict

    @property
    def files(self) -> list:
        return [(self.bucket, k) for k in self.keys]

    def used_column_bytes(self, columns) -> tuple[int, int]:
        """(compressed, uncompressed) bytes of a column subset — the quantity
        QaaS systems bill on and scans download."""
        comp = sum(self.column_bytes[c][0] for c in columns)
        unc = sum(self.column_bytes[c][1] for c in columns)
        return comp, unc


def prepare_lineitem(
    spark: SparkSession,
    store: S3Store,
    *,
    sf: float = 0.01,
    n_files: int = 8,
    row_groups_per_file: int = 2,
    bucket: str = "data",
    prefix: str = "lineitem",
    seed: int = 0,
) -> tuple[DatasetInfo, pd.DataFrame]:
    """Generate, sort and split LINEITEM, encode its files on a thread per
    core, then upload them in file order; returns (info, sorted pdf). A file's
    bytes depend only on its rows, so they match a serial encode's."""
    pdf = synth_data.lineitem(spark, sf=sf, seed=seed).toPandas()
    pdf = pdf.sort_values(["l_shipdate", "l_orderkey", "l_linenumber"], kind="mergesort")
    pdf = pdf.reset_index(drop=True)
    n = len(pdf)
    if n_files < 1 or n_files > n:
        raise ValueError(f"n_files={n_files} out of range for {n} rows")

    per_file = -(-n // n_files)
    n_parts = -(-n // per_file)  # a trailing file would be empty: fewer files

    def encode(i: int) -> tuple[bytes, pq.FileMetaData]:
        part = pdf.iloc[i * per_file : (i + 1) * per_file]
        buf = io.BytesIO()
        pq.write_table(
            pa.Table.from_pandas(part, preserve_index=False),
            buf,
            compression="gzip",  # the paper's gzip-compressed files (§5.1)
            row_group_size=max(1, -(-len(part) // row_groups_per_file)),
            write_statistics=True,
        )
        data = buf.getvalue()
        return data, pq.ParquetFile(io.BytesIO(data)).metadata

    # The Parquet writer releases the GIL, so the files compress on every
    # core. All of them encode before the first PUT: a failure stores nothing.
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        encoded = list(pool.map(encode, range(n_parts)))

    store.create_bucket(bucket)
    client = store.client()  # setup traffic; ledger not part of any query
    keys, col_bytes, total_c, total_u = [], {}, 0, 0
    for i, (data, meta) in enumerate(encoded):
        key = f"{prefix}/part-{i:05d}.parquet"
        client.put(bucket, key, data)
        keys.append(key)
        for rg in range(meta.num_row_groups):
            rgm = meta.row_group(rg)
            total_u += rgm.total_byte_size
            for ci in range(rgm.num_columns):
                cm = rgm.column(ci)
                name = meta.schema.column(ci).name
                c, u = col_bytes.get(name, (0, 0))
                col_bytes[name] = (
                    c + cm.total_compressed_size,
                    u + cm.total_uncompressed_size,
                )
        total_c += len(data)

    info = DatasetInfo(
        bucket=bucket,
        prefix=prefix,
        keys=keys,
        n_rows=n,
        n_files=len(keys),
        total_compressed_bytes=total_c,
        total_uncompressed_bytes=total_u,
        column_bytes=col_bytes,
    )
    return info, pdf
