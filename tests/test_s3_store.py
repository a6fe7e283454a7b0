"""Unit tests for the simulated S3 object store and request ledgers."""
import os
import threading

import pytest

from repro.core.metrics import WorkerMetrics
from repro.s3.store import Ledger, NoSuchBucket, NoSuchKey, S3Store


@pytest.fixture()
def s3(tmp_path):
    store = S3Store(tmp_path)
    store.create_bucket("b0")
    store.create_bucket("b1")
    return store


class TestPutGet:
    def test_roundtrip(self, s3):
        c = s3.client()
        c.put("b0", "a/b/key", b"hello")
        assert c.get("b0", "a/b/key") == b"hello"

    def test_overwrite(self, s3):
        c = s3.client()
        c.put("b0", "k", b"one")
        c.put("b0", "k", b"two")
        assert c.get("b0", "k") == b"two"

    def test_empty_object(self, s3):
        c = s3.client()
        c.put("b0", "empty", b"")
        assert c.get("b0", "empty") == b""
        assert c.head("b0", "empty") == 0

    @pytest.mark.parametrize(
        "offset,length,expected",
        [(0, 5, b"01234"), (3, 4, b"3456"), (8, None, b"89"), (0, None, b"0123456789"), (9, 100, b"9")],
    )
    def test_ranged_get(self, s3, offset, length, expected):
        c = s3.client()
        c.put("b0", "r", b"0123456789")
        assert c.get("b0", "r", offset=offset, length=length) == expected

    def test_get_missing_raises(self, s3):
        with pytest.raises(NoSuchKey):
            s3.client().get("b0", "nope")

    def test_missing_bucket_raises(self, s3):
        with pytest.raises(NoSuchBucket):
            s3.client().get("zzz", "k")

    @pytest.mark.parametrize("key", ["../escape", "a//../b", ""])
    def test_invalid_keys_rejected(self, s3, key):
        with pytest.raises((ValueError, NoSuchKey)):
            s3.client().put("b0", key, b"x")

    def test_bad_bucket_name_rejected(self, s3):
        with pytest.raises(ValueError):
            s3.create_bucket("Has Spaces")

    def test_atomic_put_no_partial_reads(self, s3):
        """Concurrent readers either miss the key or see the full object."""
        c = s3.client()
        payload = b"x" * (1 << 20)
        seen = []

        def reader():
            r = s3.client()
            for _ in range(200):
                try:
                    seen.append(len(r.get("b0", "big")))
                except NoSuchKey:
                    pass

        t = threading.Thread(target=reader)
        t.start()
        c.put("b0", "big", payload)
        t.join()
        assert all(n == len(payload) for n in seen)


class TestListHeadDelete:
    def test_list_prefix(self, s3):
        c = s3.client()
        for k in ("p/one", "p/two", "q/three"):
            c.put("b0", k, b"x")
        assert c.list("b0", "p/") == ["p/one", "p/two"]
        assert c.list("b0") == ["p/one", "p/two", "q/three"]

    def test_list_excludes_temp_files(self, s3, tmp_path):
        c = s3.client()
        c.put("b0", "p/one", b"x")
        (tmp_path / "b0" / "p" / ".tmp-junk").write_bytes(b"partial")
        assert c.list("b0", "p/") == ["p/one"]

    def test_list_prefix_filters_by_string(self, s3):
        """A prefix that does not end at ``/`` matches keys by string, in
        the last directory it names and in the ones below it."""
        c = s3.client()
        for k in ("p/one", "p/two", "p/o/deep", "pq/x", "q/three", "one"):
            c.put("b0", k, b"x")
        assert c.list("b0", "p/o") == ["p/o/deep", "p/one"]
        assert c.list("b0", "p") == ["p/o/deep", "p/one", "p/two", "pq/x"]
        assert c.list("b0", "p/o/") == ["p/o/deep"]
        assert c.list("b0", "nope/") == []
        assert c.list("b0", "o") == ["one"]

    @pytest.mark.parametrize("prefix", ["../b1/", "p/../", "/", "/abs/"])
    def test_list_never_leaves_the_bucket(self, s3, prefix):
        c = s3.client()
        c.put("b0", "p/one", b"x")
        c.put("b1", "k", b"x")
        assert c.list("b0", prefix) == []
        assert c.ledger.lists == 1

    def test_list_walks_only_the_prefix_directory(self, s3, tmp_path, monkeypatch):
        """A LIST of ``r1/`` opens ``r1/`` and what lies below it, never
        ``r2/`` or the bucket's top directory."""
        c = s3.client()
        for k in ("r1/a/x", "r1/b", "r2/a/x", "r2/b", "top"):
            c.put("b0", k, b"x")
        opened, scandir = [], os.scandir
        monkeypatch.setattr(os, "scandir", lambda p=".": opened.append(os.fspath(p)) or scandir(p))
        assert c.list("b0", "r1/") == ["r1/a/x", "r1/b"]
        bucket = tmp_path / "b0"
        assert sorted(opened) == [str(bucket / "r1"), str(bucket / "r1" / "a")]

    def test_head_size(self, s3):
        c = s3.client()
        c.put("b0", "k", b"12345")
        assert c.head("b0", "k") == 5

    @pytest.mark.parametrize("op", ["get", "head"])
    @pytest.mark.parametrize(
        "bucket,key,error",
        [("zzz", "k", NoSuchBucket), ("b0", "nope", NoSuchKey), ("b0", "../x", ValueError)],
        ids=["missing-bucket", "missing-key", "invalid-key"],
    )
    def test_failed_read_names_its_cause_and_bills_nothing(self, s3, op, bucket, key, error):
        """GET and HEAD look at the bucket only once the object is missing,
        and still tell a missing bucket from a missing key."""
        c = s3.client()
        with pytest.raises(error):
            getattr(c, op)(bucket, key)
        assert c.ledger.requests == 0

    def test_key_with_a_final_newline_rejected(self, s3, tmp_path):
        c = s3.client()
        with pytest.raises(ValueError, match="invalid key"):
            c.put("b0", "k\n", b"x")
        assert list((tmp_path / "b0").iterdir()) == []
        assert c.ledger.requests == 0

    def test_put_never_creates_a_bucket(self, s3, tmp_path):
        c = s3.client()
        with pytest.raises(NoSuchBucket):
            c.put("zzz", "k", b"x")
        assert not (tmp_path / "zzz").exists()
        assert c.ledger.requests == 0


def _tree(top):
    """Every file under ``top``, with its bytes."""
    return {p.relative_to(top): p.read_bytes() for p in top.rglob("*") if p.is_file()}


class TestBucketNames:
    """A bucket name is checked on every request, so no request reaches a
    file outside its bucket: not above the store's root, not in a
    directory that is no bucket."""

    @pytest.fixture()
    def planted(self, tmp_path):
        """A store under ``tmp_path/root`` and an object ``x`` where each
        invalid bucket name below would lead."""
        store = S3Store(tmp_path / "root")
        for d in (tmp_path, store.root / "a" / "b", store.root / "b\n"):
            d.mkdir(parents=True, exist_ok=True)
            (d / "x").write_bytes(b"secret")
        return store, tmp_path

    @pytest.mark.parametrize("bucket", ["..", "a/b", "b\n"], ids=["dotdot", "slash", "newline"])
    @pytest.mark.parametrize(
        "op,args", [("get", ("x",)), ("head", ("x",)), ("list", ("",)), ("put", ("y", b"data"))],
        ids=["get", "head", "list", "put"],
    )
    def test_invalid_bucket_rejected(self, planted, op, args, bucket):
        store, top = planted
        before = _tree(top)
        c = store.client()
        with pytest.raises(ValueError, match="invalid bucket name"):
            getattr(c, op)(bucket, *args)
        assert c.ledger.requests == 0
        assert _tree(top) == before

    def test_create_bucket_rejects_a_final_newline(self, tmp_path):
        with pytest.raises(ValueError, match="invalid bucket name"):
            S3Store(tmp_path).create_bucket("b\n")
        assert list(tmp_path.iterdir()) == []


class TestLedger:
    def test_counts_every_request_kind(self, s3):
        c = s3.client()
        c.put("b0", "k", b"abc")
        c.get("b0", "k")
        c.head("b0", "k")
        c.list("b0")
        c.ledger.record("deletes", "b0")  # the ledger bills DELETE; no client call issues one
        led = c.ledger
        assert (led.puts, led.gets, led.heads, led.lists, led.deletes) == (1, 1, 1, 1, 1)
        assert led.requests == 5

    def test_bytes_accounting(self, s3):
        c = s3.client()
        c.put("b0", "k", b"abcdef")
        c.get("b0", "k", offset=1, length=3)
        assert c.ledger.bytes_written == 6
        assert c.ledger.bytes_read == 3

    def test_per_bucket_counts(self, s3):
        c = s3.client()
        c.put("b0", "k", b"x")
        c.put("b1", "k", b"x")
        c.get("b1", "k")
        assert c.ledger.per_bucket["b0"] == {"puts": 1}
        assert c.ledger.per_bucket["b1"] == {"puts": 1, "gets": 1}

    def test_merge_and_json_roundtrip(self):
        """A worker's ledger travels to the driver in its result-queue
        report: ``WorkerMetrics.to_json``, then ``from_json`` and
        ``ledger_obj()`` on the driver."""
        a, b = Ledger(), Ledger()
        a.record("puts", "x", 10)
        b.record("gets", "x", 5)
        b.record("puts", "y", 1)
        a.merge(b)
        assert (a.puts, a.gets) == (2, 1)
        assert a.bytes_written == 11 and a.bytes_read == 5
        report = WorkerMetrics(worker_id=3, ledger=vars(a).copy()).to_json()
        assert WorkerMetrics.from_json(report).ledger_obj() == a

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Ledger().record("borrows", "b")

    def test_clients_isolated(self, s3):
        c1, c2 = s3.client(), s3.client()
        c1.put("b0", "k", b"x")
        assert c2.ledger.requests == 0
        assert c2.get("b0", "k") == b"x"  # but they share the store
