"""Tests for BDD serialisation (dump/load round trips)."""


import pytest

from repro.bdd import BDDManager
from repro.bdd.manager import BDDError
from repro.bdd.serialize import dump, load

from tests.bdd.serialize_text import dumps, loads


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d"])


class TestRoundTrip:
    def test_single_function(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | ~mgr.var("c")
        new_mgr, (g,) = loads(dumps([f]))
        assert new_mgr.variables == mgr.variables
        for model in f.iter_models():
            assert g.evaluate(model)
        assert f.sat_count() == g.sat_count()

    def test_multiple_functions_share_structure(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        g = f | mgr.var("c")
        text = dumps([f, g])
        _, (f2, g2) = loads(text)
        assert f2 <= g2
        assert f2.sat_count() == f.sat_count()
        assert g2.sat_count() == g.sat_count()

    def test_constants(self, mgr):
        _, (t, f) = loads(dumps([mgr.true, mgr.false]))
        assert t.is_true() and f.is_false()

    def test_load_into_existing_manager(self, mgr):
        f = mgr.var("a") ^ mgr.var("d")
        other = BDDManager(["d", "a", "x"])  # different order, extra variable
        _, (g,) = loads(dumps([f]), manager=other)
        for model in f.iter_models(care_vars=["a", "d"]):
            assert g.evaluate(model)

    def test_file_round_trip(self, mgr, tmp_path):
        f = mgr.var("a") | (mgr.var("b") & mgr.var("c"))
        path = tmp_path / "f.bdd"
        with open(path, "w", encoding="utf-8") as handle:
            dump([f], handle)
        with open(path, encoding="utf-8") as handle:
            _, (g,) = load(handle)
        assert g.sat_count() == f.sat_count()

    def test_reachable_set_round_trip(self):
        # End-to-end: persist the reachable set of an STG and reload it.
        from repro.core.encoding import SymbolicEncoding
        from repro.core.traversal import symbolic_traversal
        from repro.stg.generators import muller_pipeline

        encoding = SymbolicEncoding(muller_pipeline(4))
        reached, stats = symbolic_traversal(encoding)
        new_mgr, (loaded,) = loads(dumps([reached]))
        care = [v for v in new_mgr.variables]
        assert loaded.sat_count(care_vars=care) == stats.num_states


class TestErrors:
    def test_empty_function_list_rejected(self):
        with pytest.raises(BDDError):
            dumps([])

    def test_mixed_managers_rejected(self, mgr):
        other = BDDManager(["a"])
        with pytest.raises(BDDError):
            dumps([mgr.var("a"), other.var("a")])

    def test_bad_header_rejected(self):
        with pytest.raises(BDDError):
            loads("not a bdd file\n")

    def test_missing_vars_line_rejected(self):
        with pytest.raises(BDDError):
            loads("bdd-serialized 1\nroots 1\nroot 1\n")

    def test_undefined_root_rejected(self, mgr):
        text = "bdd-serialized 1\nvars a\nroots 1\nroot 99\n"
        with pytest.raises(BDDError):
            loads(text)

    def test_unknown_child_rejected(self):
        text = ("bdd-serialized 1\nvars a\nroots 1\n"
                "node 5 a 7 1\nroot 5\n")
        with pytest.raises(BDDError):
            loads(text)
