"""File-naming schemes (FORMATFILENAME variants) and partition serde."""
import numpy as np
import pyarrow as pa
import pytest

from repro.exchange import naming, serde


class TestNaming:
    def test_bucket_spreading(self):
        """§4.4.1: group id modulo bucket count, buckets made at install."""
        assert naming.bucket_for_group(13, 10) == "xbkt3"
        assert len(set(naming.bucket_for_group(g, 10) for g in range(100))) == 10

    def test_exchange_buckets_list(self):
        assert naming.exchange_buckets(3) == ["xbkt0", "xbkt1", "xbkt2"]
        with pytest.raises(ValueError):
            naming.exchange_buckets(0)

    def test_part_key_encodes_sender_and_receiver(self):
        k = naming.part_key("run", 1, 7, 2, 3)
        assert k == "run/l1/g7/s2/r3"

    def test_combined_key_roundtrip(self):
        lengths = [0, 123, 4567, 1]
        k = naming.combined_key("run", 0, 2, 5, lengths)
        sender, parsed = naming.parse_combined(k)
        assert sender == 5
        assert parsed == lengths

    def test_key_length_limit_enforced(self):
        """§4.4.3: 'file names are limited to 1 KiB, so this only works until
        at most a few hundred workers'."""
        lengths = list(range(10_000_000, 10_000_300))  # 300 8-digit offsets
        with pytest.raises(ValueError):
            naming.combined_key("run", 0, 0, 0, lengths)

    def test_moderate_group_fits_the_limit(self):
        """Multi-level groups (tens of members) fit comfortably."""
        lengths = [12_345_678] * 64
        naming.combined_key("run", 0, 0, 0, lengths)  # no raise

    def test_lengths_codec(self):
        assert naming.decode_lengths(naming.encode_lengths([1, 0, 99])) == [1, 0, 99]
        assert naming.decode_lengths("") == []

    def test_sidecar_keys_distinct(self):
        d = naming.sidecar_data_key("r", 0, 1, 2)
        o = naming.sidecar_offsets_key("r", 0, 1, 2)
        assert d != o and d.startswith(naming.group_prefix("r", 0, 1))


class TestSerde:
    def _table(self, n=100):
        g = np.random.default_rng(1)
        day = np.datetime64("1994-01-01", "ns") + g.integers(0, 9, n).astype("timedelta64[D]")
        return pa.table({"k": g.integers(0, 50, n), "v": g.random(n), "d": day})

    def test_roundtrip(self):
        t = self._table()
        back = serde.bytes_to_frame(serde.frame_to_bytes(t))
        assert back.schema.equals(t.schema, check_metadata=True)
        assert back.equals(t, check_metadata=True)

    def test_empty_frame_keeps_dtypes(self):
        """An empty table keeps its schema: receivers concatenate it with
        non-empty parts."""
        t = self._table().slice(0, 0)
        back = serde.bytes_to_frame(serde.frame_to_bytes(t))
        assert back.schema.equals(t.schema, check_metadata=True)
        assert back.num_rows == 0
        assert back.equals(t, check_metadata=True)

    def test_combine_and_slice(self):
        tables = [self._table(10), self._table(0), self._table(25)]
        parts = [serde.frame_to_bytes(t) for t in tables]
        blob, lengths = serde.combine(parts)
        assert sum(lengths) == len(blob)
        for i, t in enumerate(tables):
            off, ln = serde.part_range(lengths, i)
            back = serde.bytes_to_frame(blob[off : off + ln])
            assert back.schema.equals(t.schema, check_metadata=True)
            assert back.equals(t, check_metadata=True)

    def test_part_range_offsets_are_running_sums(self):
        lengths = [5, 0, 7]
        assert serde.part_range(lengths, 0) == (0, 5)
        assert serde.part_range(lengths, 1) == (5, 0)
        assert serde.part_range(lengths, 2) == (5, 7)
