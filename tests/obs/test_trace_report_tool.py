"""tools/trace_report.py: aggregation, exit codes, --json schema,
salvage of corrupt trace files."""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools import trace_report  # noqa: E402


def write_trace(directory, name, fingerprint, wall=1.0,
                backend="process"):
    path = os.path.join(str(directory), f"{name}-{fingerprint}.jsonl")
    records = [
        {"type": "meta", "schema": 1, "entry": name,
         "fingerprint": fingerprint,
         "provenance": {"backend": backend, "shard": "0/1"}},
        {"type": "span", "id": 1, "parent": 0, "depth": 1,
         "name": "traversal", "start_s": 0.0, "duration_s": wall * 0.6,
         "bdd": {"lookups": 100, "hits": 30, "evictions": 0,
                 "live_nodes": 10, "live_nodes_delta": 5}},
        {"type": "span", "id": 0, "parent": None, "depth": 0,
         "name": "entry", "start_s": 0.0, "duration_s": wall},
        {"type": "end", "wall_s": wall},
    ]
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


class TestAggregation:
    def test_text_report_over_two_directories(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir(), second.mkdir()
        write_trace(first, "slow", "aaa111", wall=2.0)
        write_trace(second, "fast", "bbb222", wall=0.5, backend="serial")
        assert trace_report.main([str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert "2 entries from 2 trace files" in out
        assert out.index("slow") < out.index("fast")
        assert "traversal" in out and "hit-rate=0.3" in out

    def test_top_limits_the_slowest_list(self, tmp_path):
        for index in range(5):
            write_trace(tmp_path, f"e{index}", f"f{index}", wall=index + 1)
        document = trace_report.aggregate([str(tmp_path)], top=2)
        assert [s["entry"] for s in document["slowest"]] == ["e4", "e3"]
        assert document["entries"] == 5

    def test_json_document_schema(self, tmp_path, capsys):
        write_trace(tmp_path, "one", "fp1")
        assert trace_report.main([str(tmp_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == trace_report.SCHEMA
        assert set(document) >= {"directories", "trace_files", "entries",
                                 "skipped_lines", "wall_s", "slowest",
                                 "stages", "cache"}
        assert document["slowest"][0]["provenance"]["backend"] == \
            "process"
        assert document["stages"]["entry"]["count"] == 1


class TestExitCodes:
    def test_missing_directory_is_1(self, tmp_path, capsys):
        assert trace_report.main([str(tmp_path / "nope")]) == 1
        assert "no such trace directory" in capsys.readouterr().err

    def test_empty_directory_is_1(self, tmp_path, capsys):
        assert trace_report.main([str(tmp_path)]) == 1
        assert "no trace files" in capsys.readouterr().err

    def test_usage_error_is_2(self, capsys):
        assert trace_report.main([]) == 2


class TestSalvage:
    def test_corrupt_trailing_line_is_counted_not_fatal(self, tmp_path,
                                                        capsys):
        path = write_trace(tmp_path, "one", "fp1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "id": 9, "trunc')
        with pytest.warns(Warning):
            assert trace_report.main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 corrupt trace line" in out

    def test_entirely_corrupt_file_contributes_nothing(self, tmp_path,
                                                       capsys):
        write_trace(tmp_path, "good", "fp1")
        (tmp_path / "bad-ffff.jsonl").write_text("not json\n")
        with pytest.warns(Warning):
            assert trace_report.main([str(tmp_path)]) == 0
        assert "1 entries from 2 trace files" in capsys.readouterr().out
