"""Property-based tests (hypothesis) for the pure-algorithm substrates."""
import math

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile as qc
from repro.core import engine, worker
from repro.core import plan as pl
from repro.core.expr import col
from repro.exchange import algorithms as alg
from repro.exchange import naming, serde
from repro.s3.store import Ledger


class TestGridProperties:
    @given(p=st.integers(1, 5000), levels=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_grid_dims_product_exact(self, p, levels):
        assert math.prod(alg.grid_dims(p, levels)) == p

    @given(p=st.integers(1, 800), levels=st.integers(1, 3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_coords_roundtrip(self, p, levels, data):
        dims = alg.grid_dims(p, levels)
        x = data.draw(st.integers(0, p - 1))
        assert alg.from_coords(alg.coords(x, dims), dims) == x

    @given(p=st.integers(2, 400), levels=st.integers(1, 3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_routing_delivers_every_partition(self, p, levels, data):
        """Level-by-level routing ends at the partition's worker, from any
        starting worker — the exchange's correctness invariant."""
        dims = alg.grid_dims(p, levels)
        pid = data.draw(st.integers(0, p - 1))
        holder = data.draw(st.integers(0, p - 1))
        for lvl in range(levels):
            holder = alg.peer_with_coord(
                holder, dims, lvl, alg.level_coord(pid, dims, lvl)
            )
        assert holder == pid

    @given(p=st.sampled_from([12, 27, 30]) | st.integers(1, 400), levels=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_vectorised_routing_target_matches_level_coord(self, p, levels):
        """The runner routes a whole ``pid`` column at once; every target
        must be the scalar routing coordinate, also for non-square P."""
        dims = alg.grid_dims(p, levels)
        pids = np.arange(p, dtype=np.int32)
        for lvl in range(levels):
            want = [alg.level_coord(x, dims, lvl) for x in range(p)]
            assert alg.level_coords(pids, dims, lvl).tolist() == want

    @given(p=st.integers(2, 400), levels=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_groups_partition_workers_at_every_level(self, p, levels):
        dims = alg.grid_dims(p, levels)
        for lvl in range(levels):
            groups = {}
            for w in range(p):
                groups.setdefault(alg.group_id(w, dims, lvl), []).append(w)
            assert sorted(x for g in groups.values() for x in g) == list(range(p))
            assert all(len(g) == dims[lvl] for g in groups.values())


class TestSerdeProperties:
    @given(
        lengths=st.lists(st.integers(0, 50), min_size=1, max_size=10),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_combine_slice_roundtrip(self, lengths, seed):
        g = np.random.default_rng(seed)
        tables = [pa.table({"k": g.integers(0, 9, n), "v": g.random(n)}) for n in lengths]
        blob, lens = serde.combine([serde.frame_to_bytes(t) for t in tables])
        for i, t in enumerate(tables):
            off, ln = serde.part_range(lens, i)
            back = serde.bytes_to_frame(blob[off : off + ln])
            assert back.schema.equals(t.schema, check_metadata=True)
            assert back.equals(t, check_metadata=True)

    @given(lengths=st.lists(st.integers(0, 10**7), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_offsets_filename_roundtrip(self, lengths):
        key = naming.combined_key("r", 0, 0, 3, lengths)
        sender, parsed = naming.parse_combined(key)
        assert (sender, parsed) == (3, lengths)


def _per_group_loop(df: pd.DataFrame, keys: list) -> pd.DataFrame:
    """Reference: Q1-style aggregates of ``2 * v``, one group at a time,
    with SQL's answers over no rows (count 0, everything else null)."""
    groups = df.groupby(keys, sort=False) if keys else [((), df)]
    rows = []
    for key, g in groups:
        v = g["v"] * 2
        key = key if isinstance(key, tuple) else (key,)
        states = {
            "sum": v.sum() if len(g) else np.nan,
            "avg": v.mean(),
            "min": v.min(),
            "max": v.max(),
        }
        rows.append({**dict(zip(keys, key)), **states, "count": len(g)})
    return pd.DataFrame(rows, columns=[*keys, "sum", "avg", "min", "max", "count"])


class TestPartialStateProperties:
    SCHEMA = pa.schema([("k", pa.string()), ("j", pa.string()), ("v", pa.float64())])

    @given(
        n=st.integers(0, 40),
        n_workers=st.integers(1, 4),
        keys=st.sampled_from([[], ["k"], ["k", "j"]]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_then_combine_matches_per_group_loop(self, n, n_workers, keys, seed):
        """Partial states of any split of the rows over workers, combined in
        the driver, equal the aggregate of all rows computed group by group."""
        g = np.random.default_rng(seed)
        df = pd.DataFrame(
            {
                "k": g.choice(list("ab"), n).astype(object),
                "j": g.choice(list("xyz"), n).astype(object),
                "v": g.normal(size=n),
            }
        )
        aggs = [pl.AggSpec(f, f, col("v") * 2) for f in ("sum", "avg", "min", "max")]
        aggs.append(pl.AggSpec("count", "count"))
        plan = pl.AggregateNode(pl.ScanNode([("b", "f")]), keys, aggs)
        phys = qc.compile_plan(plan)
        states = engine._partial_arrow_schema(phys, self.SCHEMA)
        owner = g.integers(0, n_workers, n)
        partials = pa.concat_tables(
            worker._partial_aggregate(
                pa.Table.from_pandas(df[owner == w], schema=self.SCHEMA), phys
            ).cast(states)
            for w in range(n_workers)
        )
        got = engine._final_aggregation(partials, phys).to_pandas()
        want = _per_group_loop(df, keys)
        assert list(got.columns) == list(want.columns)
        pd.testing.assert_frame_equal(
            got.sort_values(keys).reset_index(drop=True),
            want.sort_values(keys).reset_index(drop=True),
            check_dtype=False,
            rtol=1e-9,
            atol=1e-12,
        )


class TestLedgerProperties:
    ops = st.sampled_from(["gets", "puts", "lists", "heads", "deletes"])

    @given(
        a=st.lists(st.tuples(ops, st.sampled_from("xyz")), max_size=30),
        b=st.lists(st.tuples(ops, st.sampled_from("xyz")), max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation(self, a, b):
        la, lb, lc = Ledger(), Ledger(), Ledger()
        for op, bucket in a:
            la.record(op, bucket)
            lc.record(op, bucket)
        for op, bucket in b:
            lb.record(op, bucket)
            lc.record(op, bucket)
        la.merge(lb)
        assert la == lc
        assert la.requests == len(a) + len(b)
