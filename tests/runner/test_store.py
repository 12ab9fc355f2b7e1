"""Tests of the persistent JSONL result cache."""

import dataclasses
import gc
import json
import os
import tracemalloc

import pytest

from repro.runner import (
    EntryResult,
    RunStore,
    RunStoreWarning,
    SweepPlan,
    SweepRunner,
    parse_gc_spec,
)
from repro.runner.store import RESULTS_FILE
from tests.runner import store_scenario

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "store_golden.json")


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
        with open(old.path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert [record["error"] for record in records] == ["recent"]

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


class TestFileFormat:
    """The offset index writes and serves exactly what the store wrote
    and served when it kept every record in memory (see
    ``store_scenario``)."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, encoding="utf-8") as handle:
            return json.load(handle)

    def test_every_write_path_is_byte_identical(self, tmp_path, golden):
        outcome = store_scenario.run(str(tmp_path))
        assert sorted(outcome) == sorted(golden)
        for stage in golden:  # one stage at a time, for a readable diff
            assert json.loads(json.dumps(outcome[stage])) == golden[stage]

    def test_a_file_written_before_reads_back_identically(self, tmp_path,
                                                          golden):
        written = golden["written"]
        with open(tmp_path / RESULTS_FILE, "w", encoding="utf-8") as handle:
            handle.write(written["text"])
        with pytest.warns(RunStoreWarning, match="corrupt result record"):
            store = RunStore(str(tmp_path))
        served = json.loads(json.dumps(store_scenario.served(store)))
        assert served == {key: written[key] for key in served}
        assert any(served["lookups"])


def index_of(store):
    """``{key: (offset, verdict)}`` of a store's index."""
    return {key: (entry.offset, entry.verdict)
            for key, entry in store._index.items()}


class TestOffsets:
    """A live store's offsets always equal those a fresh open derives,
    and every lookup reads back its own record."""

    def assert_current(self, store, expected):
        reopened = RunStore(store.directory)
        assert index_of(store) == index_of(reopened)
        for name, fingerprint in expected:
            hit = store.lookup(name, fingerprint)
            assert (hit.name, hit.fingerprint) == (name, fingerprint)

    def test_after_a_torn_final_line(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(make_result(name="a", fingerprint="a" * 64))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"name": "torn", "fingerp')
        with pytest.warns(RunStoreWarning, match="corrupt result record"):
            store.put(make_result(name="b", fingerprint="b" * 64))
        with pytest.warns(RunStoreWarning):
            self.assert_current(store, [("a", "a" * 64), ("b", "b" * 64)])
        with open(store.path, "rb") as handle:
            data = handle.read()
        assert store._index[("b", "b" * 64)].offset == \
            data.index(b'{"cached"', data.index(b"fingerp"))

    def test_after_an_append_by_a_second_store(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(make_result(name="a", fingerprint="a" * 64))
        second = RunStore(str(tmp_path))
        second.put(make_result(name="b", fingerprint="b" * 64))
        second.put(make_result(name="a", fingerprint="a" * 64,
                               duration=0.5))
        store.put(make_result(name="c", fingerprint="c" * 64))
        self.assert_current(store, [("a", "a" * 64), ("b", "b" * 64),
                                    ("c", "c" * 64)])
        assert store.lookup("a", "a" * 64).duration == 0.5

    def test_after_a_compaction_by_a_second_store(self, tmp_path):
        store = RunStore(str(tmp_path))
        for name in "abc":
            store.put(make_result(name=name, fingerprint=name * 64))
        store.put(make_result(name="a", fingerprint="a" * 64, duration=0.5))
        second = RunStore(str(tmp_path))
        second.compact()
        assert store.lookup("a", "a" * 64).duration == 0.5
        self.assert_current(store, [(name, name * 64) for name in "abc"])

    def test_a_deferred_adoption_is_served_until_compaction(self, tmp_path):
        other = RunStore(str(tmp_path / "other"))
        other.put(make_result(name="a", fingerprint="a" * 64))
        store = RunStore(str(tmp_path / "mine"))
        store.merge(other, compact=False)
        assert store._index[("a", "a" * 64)].offset is None
        assert store.lookup("a", "a" * 64).name == "a"
        store.compact()
        assert index_of(store) == {("a", "a" * 64): (0, True)}
        assert store.lookup("a", "a" * 64).name == "a"

    def test_merging_a_store_into_itself_adopts_nothing(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(make_result())
        assert store.merge(str(tmp_path)) == 0
        assert store.merge(store) == 0


class TestDurationHint:
    """``duration_hint`` and ``in`` agree with a brute-force scan of the
    latest record per key."""

    def assert_oracle(self, store, names):
        latest = {}
        for record in store_records(store):
            latest[(record["name"], record["fingerprint"])] = record
        latest.update(store._unsaved)
        for name in names:
            durations = [record["duration"] for (key_name, _), record
                         in latest.items() if key_name == name]
            assert store.duration_hint(name) == \
                (max(durations) if durations else None)
            assert (name in store) == bool(durations)

    def test_puts_merge_gc_and_compaction(self, tmp_path, monkeypatch):
        import repro.runner.store as store_module

        names = ["a", "b", "c", "d", "missing"]
        stamp = iter(range(100, 200))
        monkeypatch.setattr(store_module.time, "time",
                            lambda: float(next(stamp)))
        store = RunStore(str(tmp_path / "mine"))
        for name, fingerprint, duration in [
                ("a", "1", 2.0), ("a", "2", 5.0), ("b", "1", 1.0),
                ("a", "2", 3.0),   # the longest record gives way
                ("b", "1", 4.0),   # and grows
                ("c", "1", 0.5)]:
            store.put(make_result(name=name, fingerprint=fingerprint,
                                  duration=duration))
            self.assert_oracle(store, names)
        other = RunStore(str(tmp_path / "other"))
        other.put(make_result(name="d", fingerprint="1", duration=9.0))
        other.put(make_result(name="a", fingerprint="3", duration=1.5))
        assert store.merge(other, compact=False) == 2
        self.assert_oracle(store, names)
        assert store.gc(max_entries=3) == 3  # a/1, a/2 and b/1 go
        self.assert_oracle(store, names)
        store.compact()
        self.assert_oracle(store, names)
        self.assert_oracle(RunStore(store.directory), names)


def store_records(store):
    if not os.path.exists(store.path):
        return []
    with open(store.path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


#: Records the memory tests store, and the bound on what the index may
#: keep per record in memory: a few hundred bytes for the key, its
#: entry and the name's longest duration, against about 2 KB for the
#: record itself as a line of the file.
MEMORY_RECORDS = 2000
RETAINED_BYTES_PER_RECORD = 1000


def retained_bytes_per_record(action):
    """Bytes still allocated after ``action()`` returns, per record."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = action()
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / \
            MEMORY_RECORDS, kept
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """What a long-lived store holds per record is a small index entry,
    not the record: bounded after puts and after re-opening."""

    @pytest.fixture(scope="class")
    def templates(self):
        # Real records with every check's verdicts, liveness included.
        names = ["vme_read", "mutex_element", "sbuf_send_ctl",
                 "master_read_2"]
        return SweepRunner(SweepPlan(names=names)).run().results

    def put_all(self, store, templates):
        for number in range(MEMORY_RECORDS):
            template = templates[number % len(templates)]
            store.put(dataclasses.replace(
                template, name=f"{template.name}_{number}",
                fingerprint=f"{number:064x}"))

    def test_puts_stay_under_the_bound(self, tmp_path, templates):
        store = RunStore(str(tmp_path))
        retained, _ = retained_bytes_per_record(
            lambda: self.put_all(store, templates))
        assert len(store) == MEMORY_RECORDS
        assert retained < RETAINED_BYTES_PER_RECORD

    def test_reopening_stays_under_the_bound(self, tmp_path, templates):
        self.put_all(RunStore(str(tmp_path)), templates)
        retained, reopened = retained_bytes_per_record(
            lambda: RunStore(str(tmp_path)))
        assert len(reopened) == MEMORY_RECORDS
        assert retained < RETAINED_BYTES_PER_RECORD
        hit = reopened.lookup("vme_read_0", f"{0:064x}")
        assert hit.report == templates[0].report


class TestOpenCount:
    """A compaction or a merge reads the records it keeps through one
    handle: the file is opened as often for 200 records as for 10."""

    @pytest.fixture
    def opens(self, monkeypatch):
        import repro.utils.journal as journal_module

        paths = []

        def counting_open(file, *args, **kwargs):
            paths.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(journal_module, "open", counting_open,
                            raising=False)
        return paths

    @staticmethod
    def filled(directory, count):
        store = RunStore(str(directory))
        for number in range(count):
            store.put(make_result(name=f"entry_{number}",
                                  fingerprint=f"{number:064x}"))
        return store

    @pytest.mark.parametrize("count", [10, 200])
    def test_compaction_opens_the_file_a_bounded_number_of_times(
            self, tmp_path, opens, count):
        store = self.filled(tmp_path, count)
        del opens[:]
        store.compact()
        assert opens.count(store.path) <= 2  # the replay and the read
        assert len(store_records(store)) == count

    @pytest.mark.parametrize("count", [10, 200])
    def test_merge_opens_the_source_a_bounded_number_of_times(
            self, tmp_path, opens, count):
        source = self.filled(tmp_path / "source", count)
        target = RunStore(str(tmp_path / "target"))
        del opens[:]
        assert target.merge(source) == count
        assert opens.count(source.path) <= 2  # the replay and the read
        assert len(store_records(target)) == count
