"""Tests of the persistent JSONL result cache."""

import json
import os

import pytest

from repro.runner import EntryResult, RunStore, RunStoreWarning, parse_gc_spec
from repro.runner.store import RESULTS_FILE


def make_result(name="handshake", status="ok", fingerprint="f" * 64,
                **overrides):
    data = dict(name=name, status=status, engine="symbolic",
                fingerprint=fingerprint,
                report={"stg_name": name, "method": "symbolic"},
                mismatches=[], duration=0.01)
    data.update(overrides)
    return EntryResult(**data)


class TestRoundtrip:
    def test_put_then_lookup(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(make_result())
        hit = store.lookup("handshake", "f" * 64)
        assert hit is not None
        assert hit.status == "ok"
        assert hit.cached  # served results are marked as cache hits
        assert hit.report["stg_name"] == "handshake"

    def test_persists_across_instances(self, tmp_path):
        RunStore(str(tmp_path)).put(make_result())
        reopened = RunStore(str(tmp_path))
        assert len(reopened) == 1
        assert reopened.lookup("handshake", "f" * 64) is not None

    def test_cached_results_are_not_rewritten(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(make_result())
        hit = store.lookup("handshake", "f" * 64)
        store.put(hit)  # a no-op: the original computation is on disk
        path = os.path.join(str(tmp_path), RESULTS_FILE)
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 1
        # ... and what is on disk is never marked cached.
        assert json.loads(lines[0])["cached"] is False


class TestInvalidation:
    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(make_result(fingerprint="a" * 64))
        assert store.lookup("handshake", "b" * 64) is None

    def test_unknown_name_is_a_miss(self, tmp_path):
        store = RunStore(str(tmp_path))
        assert store.lookup("handshake", "f" * 64) is None

    def test_errors_and_timeouts_are_never_served(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(make_result(name="bad", status="error", report=None,
                              error="boom"))
        store.put(make_result(name="slow", status="timeout", report=None,
                              error="timed out"))
        assert store.lookup("bad", "f" * 64) is None
        assert store.lookup("slow", "f" * 64) is None

    def test_mismatches_are_served(self, tmp_path):
        # A mismatch is a complete, reproducible verdict -- recomputing
        # it would produce the same answer.
        store = RunStore(str(tmp_path))
        store.put(make_result(status="mismatch",
                              mismatches=["csc: expected True"]))
        hit = store.lookup("handshake", "f" * 64)
        assert hit is not None and hit.status == "mismatch"

    def test_configs_coexist_per_fingerprint(self, tmp_path):
        # Two engine configs (or two content versions) of the same entry
        # share the store without evicting each other: the index key is
        # (name, fingerprint), so alternating sweeps keep hitting.
        store = RunStore(str(tmp_path))
        store.put(make_result(fingerprint="a" * 64))
        store.put(make_result(fingerprint="b" * 64))
        assert store.lookup("handshake", "a" * 64) is not None
        assert store.lookup("handshake", "b" * 64) is not None
        assert store.lookup("handshake", "c" * 64) is None


class TestRobustness:
    def test_corrupt_lines_are_skipped_with_a_warning(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(make_result())
        path = os.path.join(str(tmp_path), RESULTS_FILE)
        with open(path, "a") as handle:
            handle.write("{not json\n")
            handle.write('{"json but": "not a result"}\n')
        with pytest.warns(RunStoreWarning, match="corrupt result record"):
            reopened = RunStore(str(tmp_path))
        assert len(reopened) == 1
        assert reopened.skipped_lines == 2
        assert reopened.lookup("handshake", "f" * 64) is not None

    def test_truncated_trailing_line_is_survivable_and_repairable(
            self, tmp_path):
        # The exact state a killed sweep leaves behind: the final record
        # cut mid-write, no trailing newline.  Loading must keep every
        # complete record and compact() must repair the file.
        store = RunStore(str(tmp_path))
        store.put(make_result(fingerprint="a" * 64))
        store.put(make_result(fingerprint="b" * 64))
        path = os.path.join(str(tmp_path), RESULTS_FILE)
        with open(path, encoding="utf-8") as handle:
            intact = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(intact + intact.splitlines()[0][:37])
        with pytest.warns(RunStoreWarning):
            survivor = RunStore(str(tmp_path))
        assert len(survivor) == 2
        assert survivor.skipped_lines == 1
        survivor.compact()
        assert survivor.skipped_lines == 0
        reloaded = RunStore(str(tmp_path))  # clean now: no warning
        assert len(reloaded) == 2
        assert reloaded.skipped_lines == 0

    def test_compact_drops_duplicate_and_corrupt_records(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(make_result(fingerprint="a" * 64, duration=0.1))
        store.put(make_result(fingerprint="b" * 64))
        path = os.path.join(str(tmp_path), RESULTS_FILE)
        with open(path, "a") as handle:
            handle.write("garbage\n")
        # Re-record the same (name, fingerprint) key: latest wins.
        with pytest.warns(RunStoreWarning, match="corrupt result record"):
            rewritten = RunStore(str(tmp_path))
        rewritten.put(make_result(fingerprint="a" * 64, duration=0.2))
        rewritten.compact()
        with open(path) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == 2
        by_fingerprint = {record["fingerprint"]: record
                          for record in records}
        assert by_fingerprint["a" * 64]["duration"] == 0.2
        assert "b" * 64 in by_fingerprint


class TestMerge:
    def test_disjoint_shard_stores_combine(self, tmp_path):
        left = RunStore(str(tmp_path / "left"))
        left.put(make_result(name="a", fingerprint="a" * 64))
        right = RunStore(str(tmp_path / "right"))
        right.put(make_result(name="b", fingerprint="b" * 64))
        adopted = left.merge(right)
        assert adopted == 1
        assert len(left) == 2
        assert left.lookup("a", "a" * 64) is not None
        assert left.lookup("b", "b" * 64) is not None

    def test_merge_accepts_a_directory_path(self, tmp_path):
        RunStore(str(tmp_path / "other")).put(
            make_result(name="x", fingerprint="c" * 64))
        store = RunStore(str(tmp_path / "mine"))
        assert store.merge(str(tmp_path / "other")) == 1
        assert store.lookup("x", "c" * 64) is not None

    def test_merge_persists_to_disk(self, tmp_path):
        other = RunStore(str(tmp_path / "other"))
        other.put(make_result(name="y", fingerprint="d" * 64))
        RunStore(str(tmp_path / "mine")).merge(other)
        reopened = RunStore(str(tmp_path / "mine"))
        assert reopened.lookup("y", "d" * 64) is not None

    def test_verdict_beats_retryable_on_conflict(self, tmp_path):
        # One machine finished the entry, another crashed on it: the
        # verdict wins regardless of merge direction.
        finished = RunStore(str(tmp_path / "finished"))
        finished.put(make_result())
        crashed = RunStore(str(tmp_path / "crashed"))
        crashed.put(make_result(status="error", report=None, error="oom"))
        crashed.merge(finished)
        hit = crashed.lookup("handshake", "f" * 64)
        assert hit is not None and hit.status == "ok"
        reopened = RunStore(str(tmp_path / "finished"))
        reopened.merge(RunStore(str(tmp_path / "crashed")))
        assert reopened.lookup("handshake", "f" * 64).status == "ok"

    def test_two_retryables_keep_the_newest(self, tmp_path, monkeypatch):
        import repro.runner.store as store_module

        clock = iter([100.0, 200.0])
        monkeypatch.setattr(store_module.time, "time",
                            lambda: next(clock))
        old = RunStore(str(tmp_path / "old"))
        old.put(make_result(status="error", report=None, error="stale"))
        new = RunStore(str(tmp_path / "new"))
        new.put(make_result(status="error", report=None, error="recent"))
        old.merge(new)
        record = old._index[("handshake", "f" * 64)]
        assert record["error"] == "recent"

    def test_merge_is_idempotent(self, tmp_path):
        left = RunStore(str(tmp_path / "left"))
        left.put(make_result(name="a", fingerprint="a" * 64))
        right = RunStore(str(tmp_path / "right"))
        right.put(make_result(name="b", fingerprint="b" * 64))
        left.merge(right)
        assert left.merge(RunStore(str(tmp_path / "right"))) == 0
        assert len(left) == 2


class TestGC:
    def put_at(self, store, monkeypatch, name, stamp):
        import repro.runner.store as store_module

        monkeypatch.setattr(store_module.time, "time", lambda: stamp)
        store.put(make_result(name=name, fingerprint=f"{len(name):x}" * 64))

    def test_max_entries_keeps_the_most_recent(self, tmp_path, monkeypatch):
        store = RunStore(str(tmp_path))
        self.put_at(store, monkeypatch, "a", 100.0)
        self.put_at(store, monkeypatch, "bb", 300.0)
        self.put_at(store, monkeypatch, "ccc", 200.0)
        evicted = store.gc(max_entries=2)
        assert evicted == 1
        assert "a" not in store  # oldest stamp goes first
        assert "bb" in store and "ccc" in store

    def test_max_age_drops_old_records(self, tmp_path, monkeypatch):
        store = RunStore(str(tmp_path))
        self.put_at(store, monkeypatch, "old", 100.0)
        self.put_at(store, monkeypatch, "recent", 900.0)
        assert store.gc(max_age=500.0, now=1000.0) == 1
        assert "old" not in store and "recent" in store

    def test_gc_compacts_the_file(self, tmp_path, monkeypatch):
        store = RunStore(str(tmp_path))
        self.put_at(store, monkeypatch, "a", 1.0)
        self.put_at(store, monkeypatch, "bb", 2.0)
        store.gc(max_entries=1)
        reopened = RunStore(str(tmp_path))
        assert len(reopened) == 1 and "bb" in reopened

    def test_gc_needs_a_bound(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries and/or max_age"):
            RunStore(str(tmp_path)).gc()

    def test_pre_stamp_records_count_as_oldest(self, tmp_path, monkeypatch):
        store = RunStore(str(tmp_path))
        self.put_at(store, monkeypatch, "new", 500.0)
        record = make_result(name="legacy", fingerprint="e" * 64).to_dict()
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")  # no stored_at stamp
        reopened = RunStore(str(tmp_path))
        assert reopened.gc(max_entries=1) == 1
        assert "legacy" not in reopened and "new" in reopened


class TestGcSpecParsing:
    def test_entries(self):
        assert parse_gc_spec("entries=1000") == {"max_entries": 1000}

    def test_age_units(self):
        assert parse_gc_spec("age=90") == {"max_age": 90.0}
        assert parse_gc_spec("age=90s") == {"max_age": 90.0}
        assert parse_gc_spec("age=2m") == {"max_age": 120.0}
        assert parse_gc_spec("age=2h") == {"max_age": 7200.0}
        assert parse_gc_spec("age=7d") == {"max_age": 604800.0}

    def test_combined(self):
        assert parse_gc_spec("entries=500,age=12h") == {
            "max_entries": 500, "max_age": 43200.0}

    @pytest.mark.parametrize("bad", [
        "", "entries", "entries=many", "age=soon", "size=3", "entries=,age=1",
    ])
    def test_invalid_specs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_gc_spec(bad)


class TestMergeEdgeCases:
    def test_nonexistent_source_directory_is_an_error(self, tmp_path):
        store = RunStore(str(tmp_path / "mine"))
        with pytest.raises(ValueError, match="no such run-store directory"):
            store.merge(str(tmp_path / "typo-never-created"))
        assert not (tmp_path / "typo-never-created").exists()

    def test_retryable_tie_is_idempotent(self, tmp_path, monkeypatch):
        # Equal stored_at stamps (a retried merge of the same shard
        # store): the incumbent wins and nothing is re-adopted.
        import repro.runner.store as store_module

        monkeypatch.setattr(store_module.time, "time", lambda: 500.0)
        left = RunStore(str(tmp_path / "left"))
        left.put(make_result(status="error", report=None, error="boom"))
        right = RunStore(str(tmp_path / "right"))
        right.put(make_result(status="error", report=None, error="boom"))
        assert left.merge(right) == 0
        assert left.merge(RunStore(str(tmp_path / "right"))) == 0

    def test_deferred_compaction(self, tmp_path):
        one = RunStore(str(tmp_path / "one"))
        one.put(make_result(name="a", fingerprint="a" * 64))
        two = RunStore(str(tmp_path / "two"))
        two.put(make_result(name="b", fingerprint="b" * 64))
        target = RunStore(str(tmp_path / "target"))
        target.merge(one, compact=False)
        target.merge(two, compact=False)
        assert not os.path.exists(target.path)  # nothing flushed yet
        target.compact()
        assert len(RunStore(str(tmp_path / "target"))) == 2


class TestGcSpecValidation:
    @pytest.mark.parametrize("bad", ["entries=-1", "age=-5", "age=-2d"])
    def test_negative_bounds_are_rejected_at_parse_time(self, bad):
        with pytest.raises(ValueError):
            parse_gc_spec(bad)
