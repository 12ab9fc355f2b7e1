"""Tests for BDD serialisation (dump/load round trips)."""


import pytest

from repro.bdd import BDDManager
from repro.bdd.manager import BDDError
from repro.bdd.serialize import dump, load

from tests.bdd.oracles import iter_models
from tests.bdd.serialize_text import dumps, loads


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d"])


class TestRoundTrip:
    def test_single_function(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | ~mgr.var("c")
        new_mgr, (g,) = loads(dumps([f]))
        assert new_mgr.variables == mgr.variables
        for model in iter_models(f):
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
        for model in iter_models(f, care_vars=["a", "d"]):
            assert g.evaluate(model)

    def test_same_order_load_probes_no_cache(self, mgr):
        # No stored node is a projection (level, FALSE, TRUE), so none
        # exists in the target before the load.
        f = (~mgr.var("a") & ~mgr.var("c")) | (mgr.var("b") & ~mgr.var("d"))
        text = dumps([f])
        stored = sum(line.startswith("node ") for line in text.splitlines())
        # The stored order plus a variable below it: a sub-order.
        target = BDDManager(["a", "b", "c", "d", "x"])
        lookups, created = target.cache_lookups, target.created_nodes
        _, (g,) = loads(text, manager=target)
        assert target.cache_lookups == lookups
        assert target.created_nodes - created == stored
        expected = ((~target.var("a") & ~target.var("c"))
                    | (target.var("b") & ~target.var("d")))
        assert g == expected

    def test_permuted_order_load_is_the_same_function(self, mgr):
        f = (mgr.var("a") ^ mgr.var("d")) | (mgr.var("b") & mgr.var("c"))
        other = BDDManager(["d", "c", "a", "x", "b"])
        _, (g,) = loads(dumps([f]), manager=other)
        assert g == ((other.var("a") ^ other.var("d"))
                     | (other.var("b") & other.var("c")))

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
        from repro.core.image import SymbolicImage
        from repro.core.traversal import symbolic_traversal
        from repro.stg.generators import muller_pipeline

        encoding = SymbolicEncoding(muller_pipeline(4))
        reached, stats = symbolic_traversal(SymbolicImage(encoding))
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
