"""tools/bench.py: kernel-row times read from the row's trace, row-name
resolution, the alternating repeats of the tracing and BDD-cache rows,
the serve section's requests and edit-loop block and the ledger
comparison -- in-process, no daemon.

The serve section itself (daemon boot, counter checks) runs end to end
in ``make bench`` and the CI ``bench`` job.
"""

import gc
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
from tests.core.order_oracle import co_occurrence_groups  # noqa: E402


class TestKernelRow:
    def test_stage_self_times_sum_to_the_wall_time(self):
        row = bench.kernel_rows(["vme_read"])[0]
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
        row = bench.kernel_rows(["vme_read"])[0]
        assert row["cache_lookups"] > 0

    def test_row_records_the_mean_event_span_of_its_order(self):
        row = bench.kernel_rows(["master_read@8"])[0]
        stg = bench.build_row_stg("master_read@8")
        events = spans(SymbolicEncoding(stg).all_variables,
                       co_occurrence_groups(stg))
        assert row["event_span"] == round(sum(events) / len(events), 2)


class TestAlternatingRows:
    """The kernel rows alternate with each other, the tracing and
    BDD-cache rows their two kinds of run, and each reports the median
    of the repeats with the repeats' min-max."""

    def test_kernel_rows_alternate_and_report_the_median_run(
            self, monkeypatch):
        monkeypatch.setattr(bench, "ALTERNATING_REPEATS", 3)
        monkeypatch.setattr(bench, "kernel_seconds",
                            lambda: bench.REFERENCE_S)  # no slowdown
        order = []
        # After the untimed warm-up pass, vme_read's three runs take 3, 1
        # and 2 ms; the median run is the 2 ms one, whatever position it
        # ran in.
        walls = iter([0.009, 0.090,
                      0.003, 0.020, 0.001, 0.030, 0.002, 0.010])
        real_run = bench.traced_run

        def fake_run(stg, sink):
            order.append(stg.name)
            wall_s = next(walls)
            _, pipeline = real_run(stg, sink)
            for record in sink.records:
                if record.get("name") == "entry":
                    record["duration_s"] = wall_s
            return wall_s, pipeline

        monkeypatch.setattr(bench, "traced_run", fake_run)
        vme, mutex3 = bench.kernel_rows(["vme_read", "mutex3"])
        assert order == ["vme_read", "mutex3"] * (1 + 3)
        assert vme["repeats"] == 3
        assert vme["wall_s_range"] == [0.001, 0.003]
        assert mutex3["wall_s_range"] == [0.010, 0.030]
        assert set(vme["stage_ranges"]) == set(vme["stages"])
        for stage, (low, high) in vme["stage_ranges"].items():
            assert low <= vme["stages"][stage] <= high
        assert vme["calibration_factor"] == 1.0

    def test_the_warm_up_run_is_not_among_the_timed_runs(
            self, monkeypatch):
        monkeypatch.setattr(bench, "ALTERNATING_REPEATS", 3)
        monkeypatch.setattr(bench, "kernel_seconds",
                            lambda: bench.REFERENCE_S)  # no slowdown
        # The first run pays the set-up: 50 ms, then 2 ms each.
        walls = iter([0.050, 0.002, 0.002, 0.002])
        real_run = bench.traced_run

        def fake_run(stg, sink):
            wall_s = next(walls)
            _, pipeline = real_run(stg, sink)
            for record in sink.records:
                if record.get("name") == "entry":
                    record["duration_s"] = wall_s
            return wall_s, pipeline

        monkeypatch.setattr(bench, "traced_run", fake_run)
        row = bench.kernel_rows(["vme_read"])[0]
        assert row["repeats"] == 3
        assert row["wall_s_range"] == [0.002, 0.002]
        assert next(walls, None) is None  # one warm-up, three repeats

    def test_kernel_rows_are_divided_by_each_repeats_slowdown(
            self, monkeypatch):
        # The kernel runs twice as slow around the second repeat and
        # four times as slow around the third: their runs of the same
        # raw 8 ms read 4 ms and 2 ms, and the median run is the 4 ms.
        monkeypatch.setattr(bench, "ALTERNATING_REPEATS", 3)
        slowdowns = iter([1.0] * 2 * bench.BURST + [2.0] * 2 * bench.BURST
                         + [4.0] * 2 * bench.BURST)
        monkeypatch.setattr(bench, "kernel_seconds",
                            lambda: next(slowdowns) * bench.REFERENCE_S)
        real_run = bench.traced_run

        def fake_run(stg, sink):
            _, pipeline = real_run(stg, sink)
            for record in sink.records:
                if record.get("name") == "entry":
                    record["duration_s"] = 0.008
            return 0.008, pipeline

        monkeypatch.setattr(bench, "traced_run", fake_run)
        row = bench.kernel_rows(["vme_read"])[0]
        assert row["wall_s"] == pytest.approx(0.004)
        assert row["wall_s_range"] == pytest.approx([0.002, 0.008])
        assert row["calibration_factor"] == 2.0
        assert (sum(row["stages"].values()) + row["unattributed_s"]
                == pytest.approx(row["wall_s"], abs=1e-6))

    def test_each_repeat_runs_collected_with_the_collector_off(
            self, monkeypatch):
        monkeypatch.setattr(bench, "ALTERNATING_REPEATS", 3)
        monkeypatch.setattr(bench, "kernel_seconds",
                            lambda: bench.REFERENCE_S)  # no slowdown
        seen = []
        collect, real_run = gc.collect, bench.traced_run

        def counting_collect(*args):
            seen.append("collect")
            return collect(*args)

        def fake_run(stg, sink):
            seen.append(gc.isenabled())
            return real_run(stg, sink)

        monkeypatch.setattr(gc, "collect", counting_collect)
        monkeypatch.setattr(bench, "traced_run", fake_run)
        bench.kernel_rows(["vme_read", "mutex3"])
        # After the two warm-up runs, each repeat collects and then
        # runs both rows with the collector off.
        assert seen[2:] == ["collect", False, False] * 3
        assert gc.isenabled()

    def test_a_failing_repeat_turns_the_collector_back_on(
            self, monkeypatch):
        monkeypatch.setattr(bench, "kernel_seconds",
                            lambda: bench.REFERENCE_S)
        runs = iter([None])
        real_run = bench.traced_run

        def failing_run(stg, sink):
            if next(runs, "timed") == "timed":
                raise RuntimeError("row failed")
            return real_run(stg, sink)

        monkeypatch.setattr(bench, "traced_run", failing_run)
        with pytest.raises(RuntimeError, match="row failed"):
            bench.kernel_rows(["vme_read"])
        assert gc.isenabled()

    def test_tracing_pairs_alternate_and_report_the_median_share(
            self, monkeypatch):
        monkeypatch.setattr(bench, "ALTERNATING_REPEATS", 3)
        monkeypatch.setattr(bench, "TRACING_PAIRS", 4)
        kinds = []
        # Traced runs cost 10% more, except in the second repeat (20%).
        shares = iter([10.0] * 4 + [20.0] * 4 + [10.0] * 4)

        def fake_run(stg, sink):
            kinds.append("traced" if sink is not None else "untraced")
            if sink is None:
                return 0.010, None
            if len(kinds) <= 2:  # the untimed warm-up
                return 0.011, None
            sink.emit({"type": "span", "name": "entry"})
            return 0.010 * (1 + next(shares) / 100.0), None

        monkeypatch.setattr(bench, "traced_run", fake_run)
        row = bench.tracing_overhead(noop_loops=10)
        assert kinds == ["untraced", "traced"] * (1 + 3 * 4)
        assert row["enabled_overhead_pct"] == 10.0
        assert row["enabled_overhead_pct_range"] == [10.0, 20.0]
        assert row["disabled_s"] == 0.01
        assert row["emission_sites"] == 1
        assert (row["repeats"], row["pairs_per_repeat"]) == (3, 4)

    def test_cache_sweeps_alternate_fresh_and_warm_stores(
            self, monkeypatch):
        monkeypatch.setattr(bench, "ALTERNATING_REPEATS", 3)
        stores = []
        seconds = iter([9.0, 2.0, 1.0, 3.0, 1.0, 2.4, 1.2])

        def fake_sweep(arguments, workdir):
            stores.append(os.path.basename(arguments[-1]))
            return next(seconds)

        monkeypatch.setattr(bench, "batch_check_seconds", fake_sweep)
        row = bench.bdd_cache_sweep(("handshake",))
        assert stores == ["warm", "cold-0", "warm", "cold-1", "warm",
                          "cold-2", "warm"]
        assert (row["cold_s"], row["warm_s"]) == (2.4, 1.0)
        assert row["speedup"] == 2.0
        assert row["speedup_range"] == [2.0, 3.0]


class TestEditLoopBlock:
    def test_first_and_last_windows_show_growth_with_history(self):
        assert bench.EDIT_LOOP_EDITS >= 2 * bench.EDIT_LOOP_WINDOW
        delta = [0.001 * (index + 1)
                 for index in range(bench.EDIT_LOOP_EDITS)]
        cold = sorted([0.040] * bench.EDIT_LOOP_EDITS)
        block = bench.edit_loop_section(cold, delta)
        window = bench.EDIT_LOOP_WINDOW
        assert block["delta_p50_first_ten_ms"] == \
            bench.p50_ms(delta[:window])
        assert block["delta_p50_last_ten_ms"] == \
            bench.p50_ms(delta[-window:])
        assert (block["delta_p50_first_ten_ms"]
                < block["delta_p50_last_ten_ms"])
        assert block["delta"]["requests"] == bench.EDIT_LOOP_EDITS
        assert block["delta"]["max_ms"] == max(delta) * 1000


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

        def no_rows(rows):
            raise AssertionError("--compare ran a kernel row")

        monkeypatch.setattr(bench, "kernel_rows", no_rows)
        assert bench.main(["--compare", str(old_path),
                           "--output", str(new_path)]) == 0
        output = capsys.readouterr().out
        assert "spec_a" in output and "total" in output
        assert json.loads(new_path.read_text()) == NEW


def ranged(row, wall, stages):
    """``row`` with min-max ranges (seconds) for its wall and stages."""
    return {**row, "wall_s_range": wall, "stage_ranges": stages}


class TestCompareRanges:
    OLD_A, NEW_A = OLD["kernel"][0], NEW["kernel"][0]

    def compare(self, old_ranges, new_ranges):
        old = {"kernel": [ranged(self.OLD_A, *old_ranges)]}
        new = {"kernel": [ranged(self.NEW_A, *new_ranges)]}
        return block(bench.compare_ledgers(old, new), "spec_a")

    def test_disjoint_ranges_print_beside_the_change(self):
        spec_a = self.compare(
            ([0.0095, 0.0110], {"traversal": [0.0055, 0.0065],
                                "check:csc": [0.0019, 0.0021]}),
            ([0.0075, 0.0085], {"traversal": [0.0045, 0.0052],
                                "check:csc": [0.0009, 0.0011]}))
        assert spec_a["wall"][5:] == ["[9.500-11.000]", "[7.500-8.500]"]
        assert spec_a["traversal"][5:] == ["[5.500-6.500]",
                                           "[4.500-5.200]"]

    def test_overlapping_ranges_are_marked_noise(self):
        spec_a = self.compare(
            ([0.0080, 0.0120], {"traversal": [0.0050, 0.0070],
                                "check:csc": [0.0019, 0.0021]}),
            ([0.0075, 0.0085], {"traversal": [0.0045, 0.0052],
                                "check:csc": [0.0009, 0.0011]}))
        assert spec_a["wall"][-1] == "noise"
        assert spec_a["traversal"][-1] == "noise"
        assert spec_a["check:csc"][-1] != "noise"

    def test_a_ledger_without_ranges_gets_none_printed(self):
        old = {"kernel": [self.OLD_A]}
        new = {"kernel": [ranged(self.NEW_A, [0.007, 0.009], {})]}
        spec_a = block(bench.compare_ledgers(old, new), "spec_a")
        assert spec_a["wall"] == ["10.000", "->", "8.000", "-2.000",
                                  "(-20.0%)"]
