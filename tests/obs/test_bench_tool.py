"""tools/bench.py: kernel-row times read from the row's trace, row-name
resolution, and the serve section's requests -- in-process, no daemon.

The serve section itself (daemon boot, counter checks) runs end to end
in ``make bench`` and the CI ``bench`` job.
"""

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
