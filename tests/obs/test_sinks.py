"""Trace sinks: JSONL files, salvage reads, entry-file naming."""

import json

import pytest

from repro.obs.sinks import (
    FINGERPRINT_PREFIX,
    JSONLSink,
    TraceReadWarning,
    read_trace_records,
    safe_filename,
)


class TestEntryFileNaming:
    def test_safe_filename_keeps_the_corpus_vocabulary(self):
        assert safe_filename("muller_pipeline@16") == "muller_pipeline@16"
        assert safe_filename("random_ring_n4.s1") == "random_ring_n4.s1"

    def test_safe_filename_replaces_the_rest(self):
        assert safe_filename("a b/c:d") == "a_b_c_d"
        assert safe_filename("") == "entry"

    def test_for_entry_keys_by_fingerprint_prefix(self, tmp_path):
        fingerprint = "abcdef0123456789" * 4
        sink = JSONLSink.for_entry(str(tmp_path), "vme_read", fingerprint)
        sink.close()
        expected = f"vme_read-{fingerprint[:FINGERPRINT_PREFIX]}.jsonl"
        assert (tmp_path / expected).exists()

    def test_for_entry_without_fingerprint(self, tmp_path):
        sink = JSONLSink.for_entry(str(tmp_path), "vme_read")
        sink.close()
        assert (tmp_path / "vme_read.jsonl").exists()


class TestJsonlRoundTrip:
    def test_records_round_trip_with_sorted_keys(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JSONLSink(str(path))
        sink.emit({"type": "meta", "schema": 1, "entry": "x"})
        sink.emit({"type": "span", "id": 0, "name": "work"})
        sink.close()
        lines = path.read_text().splitlines()
        assert lines[0] == json.dumps(
            {"entry": "x", "schema": 1, "type": "meta"},
            sort_keys=True)
        records, skipped = read_trace_records(str(path))
        assert skipped == 0
        assert records[1]["name"] == "work"

    def test_creates_missing_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "t.jsonl"
        JSONLSink(str(path)).close()
        assert path.exists()


class TestSalvageReads:
    def test_truncated_trailing_line_warns_and_skips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps({"type": "span", "id": 0, "name": "work"})
        path.write_text(good + "\n" + '{"type": "span", "id": 1, "na')
        with pytest.warns(TraceReadWarning, match="truncated"):
            records, skipped = read_trace_records(str(path))
        assert skipped == 1
        assert [r["id"] for r in records] == [0]

    def test_non_object_line_warns_and_skips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('[1, 2]\n{"type": "end", "wall_s": 0.1}\n')
        with pytest.warns(TraceReadWarning):
            records, skipped = read_trace_records(str(path))
        assert skipped == 1
        assert records[0]["type"] == "end"

    def test_blank_lines_are_not_corruption(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('\n{"type": "end", "wall_s": 0.1}\n\n')
        records, skipped = read_trace_records(str(path))
        assert skipped == 0
        assert len(records) == 1
