"""Unit tests for existential quantification and cofactors."""

import random

import pytest

from repro.bdd import BDDManager
from repro.bdd.analysis import support
from repro.bdd.manager import BDDOrderError

from tests.bdd.oracles import cofactor


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d"])


class TestExist:
    def test_exist_removes_variable_from_support(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        g = f.exist(["a"])
        assert g == mgr.var("b")
        assert "a" not in support(g)

    def test_exist_is_disjunction_of_cofactors(self, mgr):
        a = mgr.var("a")
        f = (a & mgr.var("b")) | (~a & mgr.var("c"))
        expected = cofactor(f, {"a": True}) | cofactor(f, {"a": False})
        assert f.exist(["a"]) == expected

    def test_exist_multiple_variables(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | (mgr.var("c") & mgr.var("d"))
        assert f.exist(["a", "b", "c", "d"]).is_true()

    def test_exist_no_variables_is_identity(self, mgr):
        f = mgr.var("a") ^ mgr.var("b")
        assert f.exist([]) == f

    def test_exist_variable_not_in_support(self, mgr):
        f = mgr.var("a")
        assert f.exist(["d"]) == f

    def test_exist_unknown_variable_raises(self, mgr):
        with pytest.raises(BDDOrderError):
            mgr.var("a").exist(["nope"])

    def test_exist_of_false_is_false(self, mgr):
        assert mgr.false.exist(["a", "b"]).is_false()


def random_function(manager, rng):
    """A random union of cubes over the manager's variables."""
    names = manager.variables
    result = manager.false
    for _ in range(rng.randint(1, 6)):
        picked = rng.sample(names, rng.randint(1, len(names)))
        result = result | manager.cube(
            {name: rng.random() < 0.5 for name in picked})
    return result


@pytest.mark.parametrize("seed", range(30))
def test_quantifiers_match_the_cofactor_oracle(seed):
    """``exist`` is the sum of the cofactors, one quantified variable at
    a time."""
    rng = random.Random(seed)
    mgr = BDDManager([f"v{i}" for i in range(6)])
    f = random_function(mgr, rng)
    names = rng.sample(mgr.variables, rng.randint(1, 4))
    some = f
    for name in names:
        some = cofactor(some, {name: False}) | cofactor(some, {name: True})
    assert f.exist(names) == some


class TestQuantifierShortcut:
    """A TRUE low branch decides a quantified node and leaves the high
    branch -- here one with a quantified level of its own -- unvisited."""

    def test_exist_stops_at_a_true_low_branch(self, mgr):
        f = ~mgr.var("a") | (mgr.var("b") ^ mgr.var("c") ^ mgr.var("d"))
        lookups = mgr.cache_lookups
        assert f.exist(["a", "d"]).is_true()
        assert mgr.cache_lookups - lookups == 1  # the root only


class TestCofactor:
    def test_positive_cofactor(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | mgr.var("c")
        assert cofactor(f, {"a": True}) == mgr.var("b") | mgr.var("c")

    def test_negative_cofactor(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | mgr.var("c")
        assert cofactor(f, {"a": False}) == mgr.var("c")

    def test_cube_cofactor_order_independent(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | (mgr.var("c") & mgr.var("d"))
        step = cofactor(cofactor(f, {"a": True}), {"c": False})
        combined = cofactor(f, {"a": True, "c": False})
        assert step == combined

    def test_cofactor_removes_variables_from_support(self, mgr):
        f = mgr.var("a") ^ mgr.var("b")
        g = cofactor(f, {"a": True})
        assert support(g) == ["b"]

    def test_shannon_expansion(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | (mgr.var("c") ^ mgr.var("d"))
        a = mgr.var("a")
        rebuilt = (a & cofactor(f, {"a": True})) | (~a & cofactor(f, {"a": False}))
        assert rebuilt == f

    def test_empty_cofactor_is_identity(self, mgr):
        f = mgr.var("a") | mgr.var("d")
        assert cofactor(f, {}) == f
