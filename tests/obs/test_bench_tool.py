"""tools/bench.py: kernel-row times read from the row's trace, row-name
resolution, the serve section's requests and the ledger comparison --
in-process, no daemon.

The serve section itself (daemon boot, counter checks) runs end to end
in ``make bench`` and the CI ``bench`` job.
"""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools import bench  # noqa: E402

from repro import corpus  # noqa: E402
from repro.api import EngineConfig  # noqa: E402
from repro.bdd.ordering import spans  # noqa: E402
from repro.cache import reachable_fingerprint  # noqa: E402
from repro.core.encoding import SymbolicEncoding  # noqa: E402
from repro.delta import TIER_SEED, classify_delta, diff_stg  # noqa: E402
from repro.stg.generators import build_example  # noqa: E402
from repro.stg.parser import parse_g  # noqa: E402
from repro.stg.writer import to_g_string  # noqa: E402


class TestKernelRow:
    def test_stage_self_times_sum_to_the_wall_time(self):
        row = bench.kernel_row("vme_read")
        assert (sum(row["stages"].values()) + row["unattributed_s"]
                == pytest.approx(row["wall_s"], abs=1e-5))
        assert "check:liveness" in row["stages"]
        assert row["states"] == 14

    @pytest.mark.parametrize("row, expected", [
        ("master_read_2", lambda: parse_g(
            corpus.entry("master_read_2").g_text, name="master_read_2")),
        ("muller_pipeline@4", lambda: build_example("muller_pipeline", 4)),
        ("fake_conflict_d1", lambda: build_example("fake_conflict_d1")),
    ], ids=["corpus-entry", "family-at-scale", "builtin-example"])
    def test_build_row_stg_resolves_every_kind_of_name(self, row,
                                                       expected):
        assert (to_g_string(bench.build_row_stg(row))
                == to_g_string(expected()))

    def test_family_rows_are_parsed_from_their_g_text(self):
        # The order a net lists its places is the order the parser met
        # them in the text, not the generator's.
        row = bench.build_row_stg("master_read@4")
        parsed = parse_g(to_g_string(build_example("master_read", 4)))
        assert row.net.places == parsed.net.places
        assert row.net.places != build_example("master_read", 4).net.places

    def test_row_records_the_traversal_lookups(self):
        row = bench.kernel_row("vme_read")
        assert row["cache_lookups"] > 0

    def test_row_records_the_mean_event_span_of_its_order(self):
        row = bench.kernel_row("master_read@8")
        encoding = SymbolicEncoding(bench.build_row_stg("master_read@8"))
        events = spans(encoding.all_variables,
                       encoding._co_occurrence_groups())
        assert row["event_span"] == round(sum(events) / len(events), 2)


class TestServeRequests:
    def test_every_edit_loop_edit_seeds_against_its_base(self):
        base_text, colds, deltas = bench.edit_loop_specs()
        base = parse_g(base_text)
        for text in colds + deltas:
            edited = parse_g(text)
            assert (classify_delta(diff_stg(base, edited), edited).tier
                    == TIER_SEED)

    def test_cold_round_requests_have_distinct_reachable_fingerprints(
            self):
        # The daemon keys reachable sets on the canonical text of the
        # task as parsed under its name.
        requests = bench.cold_requests()
        assert len(requests) == (bench.SERVE_CLIENTS
                                 * bench.SERVE_REQUESTS_PER_CLIENT)
        config = EngineConfig()
        fingerprints = {
            reachable_fingerprint(to_g_string(parse_g(text, name=name)),
                                  config)
            for name, text in requests}
        assert len(fingerprints) == len(requests)


def ledger(*rows):
    return {"schema": bench.SCHEMA, "kernel": [
        {"name": name, "wall_s": wall_s, "stages": stages,
         "unattributed_s": 0.0, **extra}
        for name, wall_s, stages, extra in rows]}


OLD = ledger(
    ("spec_a", 0.010, {"traversal": 0.006, "check:csc": 0.002}, {}),
    ("spec_b", 0.020, {"traversal": 0.015, "closure": 0.004}, {}),
    ("gone", 0.5, {"traversal": 0.5}, {}))
NEW = ledger(
    ("spec_a", 0.008, {"traversal": 0.005, "check:csc": 0.001},
     {"cache_lookups": 900}),
    ("spec_b", 0.016, {"traversal": 0.015}, {"cache_lookups": 1200}),
    ("added", 0.1, {"traversal": 0.1}, {"cache_lookups": 5}))


def block(lines, name):
    """``{label: [old, "->", new, change, ...]}`` of one report block."""
    start = lines.index(name) + 1
    figures = {}
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        figures[line[:24].strip()] = line[24:].split()
    return figures


class TestCompare:
    def test_rows_in_both_ledgers_get_their_deltas(self):
        lines = bench.compare_ledgers(OLD, NEW)
        assert [line for line in lines if not line.startswith(" ")] == \
            ["spec_a", "spec_b", "total"]
        spec_a = block(lines, "spec_a")
        assert list(spec_a) == ["wall", "check:csc", "traversal",
                                "traversal lookups"]
        assert spec_a["wall"] == ["10.000", "->", "8.000", "-2.000",
                                  "(-20.0%)"]
        assert spec_a["check:csc"][:4] == ["2.000", "->", "1.000",
                                           "-1.000"]

    def test_a_stage_missing_from_one_run_took_no_time(self):
        spec_b = block(bench.compare_ledgers(OLD, NEW), "spec_b")
        assert spec_b["closure"][:4] == ["4.000", "->", "0.000", "-4.000"]

    def test_totals_sum_the_common_rows(self):
        total = block(bench.compare_ledgers(OLD, NEW), "total")
        assert total["wall"][:4] == ["30.000", "->", "24.000", "-6.000"]
        assert total["traversal"][:3] == ["21.000", "->", "20.000"]

    def test_lookups_missing_from_a_ledger_read_not_available(self):
        lines = bench.compare_ledgers(OLD, NEW)
        for name in ("spec_a", "spec_b", "total"):
            assert block(lines, name)["traversal lookups"] == ["n/a"]
        lines = bench.compare_ledgers(NEW, NEW)
        assert block(lines, "spec_a")["traversal lookups"][:4] == \
            ["900", "->", "900", "+0"]
        assert block(lines, "total")["traversal lookups"][:3] == \
            ["2105", "->", "2105"]

    def test_compare_option_reads_both_ledgers_and_runs_nothing(
            self, tmp_path, monkeypatch, capsys):
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(OLD))
        new_path.write_text(json.dumps(NEW))

        def no_rows(row):
            raise AssertionError("--compare ran a kernel row")

        monkeypatch.setattr(bench, "kernel_row", no_rows)
        assert bench.main(["--compare", str(old_path),
                           "--output", str(new_path)]) == 0
        output = capsys.readouterr().out
        assert "spec_a" in output and "total" in output
        assert json.loads(new_path.read_text()) == NEW
