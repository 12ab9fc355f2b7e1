"""Tests of the benchmark corpus: registry metadata, loader, materialisation.

The parametrized roundtrip test (parse -> write -> parse, graphs equal)
covers every registered entry, and the sync test pins the checked-in
``tests/data`` fixtures to the registry so the historical
missing-fixture bug cannot recur.
"""

import os

import pytest

from repro import corpus
from repro.stg import parse_g, to_g_string
from repro.stg.parser import SpecificationNotFound, read_g_file

from tests.corpus.files import ensure_g_file, structurally_equal

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "data")

#: The integration fixtures that must exist as checked-in files.
CHECKED_IN = ["sbuf_send_ctl", "choice_controller", "broken_double_rise"]


class TestRegistry:
    def test_names_nonempty_and_ordered(self):
        names = corpus.names()
        assert len(names) >= 12
        assert names[0] == "sbuf_send_ctl"
        assert len(set(names)) == len(names)

    def test_required_entries_present(self):
        required = set(CHECKED_IN) | {
            "sbuf_read_ctl", "vme_read", "vme_read_resolved",
            "mutex_element", "master_read_2", "muller_pipeline_3",
            "inconsistent", "csc_violation", "irreducible_csc"}
        assert required <= set(corpus.names())

    def test_unknown_entry_error_names_alternatives(self):
        with pytest.raises(corpus.CorpusError, match="vme_read"):
            corpus.entry("no_such_benchmark")

    @pytest.mark.parametrize("name", corpus.names())
    def test_metadata_matches_parsed_interface(self, name):
        entry = corpus.entry(name)
        stg = corpus.load(name)
        assert stg.name == name
        assert len(stg.inputs) == entry.num_inputs
        assert len(stg.outputs) == entry.num_outputs
        assert len(stg.internals) == entry.num_internals
        assert stg.has_complete_initial_values()
        for place in entry.arbitration_places:
            assert stg.net.has_place(place)

    @pytest.mark.parametrize("name", corpus.names())
    def test_expected_keys_are_valid(self, name):
        expected = corpus.entry(name).expected
        assert expected, "every entry must pin at least one verdict"
        assert set(expected) <= set(corpus.REPORT_FIELDS)


class TestRoundtrip:
    @pytest.mark.parametrize("name", corpus.names())
    def test_parse_write_parse_is_identity(self, name):
        first = corpus.load(name)
        second = parse_g(to_g_string(first))
        assert structurally_equal(first, second)

    @pytest.mark.parametrize("name", corpus.names())
    def test_canonical_text_parses_through_file_reader(self, name, tmp_path):
        path = corpus.write_g(name, str(tmp_path / f"{name}.g"))
        stg = read_g_file(path)
        assert structurally_equal(stg, corpus.load(name))


class TestMaterialisation:
    def test_write_all_selection(self, tmp_path):
        paths = corpus.write_all(str(tmp_path), ["handshake", "vme_read"])
        assert [os.path.basename(p) for p in paths] == \
            ["handshake.g", "vme_read.g"]
        assert all(os.path.exists(p) for p in paths)

    def test_ensure_g_file_creates_missing(self, tmp_path):
        path = ensure_g_file("handshake", str(tmp_path))
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == corpus.g_text("handshake")

    def test_ensure_g_file_keeps_existing(self, tmp_path):
        path = tmp_path / "handshake.g"
        path.write_text("# sentinel\n")
        assert ensure_g_file("handshake", str(tmp_path)) == str(path)
        assert path.read_text() == "# sentinel\n"

    @pytest.mark.parametrize("name", CHECKED_IN)
    def test_checked_in_fixtures_stay_in_sync(self, name):
        path = os.path.join(DATA_DIR, f"{name}.g")
        assert os.path.exists(path), (
            f"{path} is missing; regenerate it with "
            f"repro.corpus.write_g({name!r}, {path!r})")
        with open(path, encoding="utf-8") as handle:
            on_disk = handle.read()
        assert on_disk == corpus.g_text(name), (
            f"{path} drifted from the corpus registry; regenerate it with "
            f"repro.corpus.write_g({name!r}, {path!r})")


class TestParserErrorHandling:
    def test_missing_file_error_names_corpus_entries(self, tmp_path):
        missing = str(tmp_path / "nope.g")
        with pytest.raises(SpecificationNotFound) as excinfo:
            read_g_file(missing)
        message = str(excinfo.value)
        assert "nope.g" in message
        assert "sbuf_send_ctl" in message
        assert "write_g" in message

    def test_error_is_still_a_file_not_found_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_g_file(str(tmp_path / "nope.g"))
