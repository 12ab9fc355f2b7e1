"""Unit tests for quantification, cofactors, composition and renaming."""

import random

import pytest

from repro.bdd import BDDManager
from repro.bdd.manager import BDDOrderError


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d"])


class TestExist:
    def test_exist_removes_variable_from_support(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        g = f.exist(["a"])
        assert g == mgr.var("b")
        assert "a" not in g.support()

    def test_exist_is_disjunction_of_cofactors(self, mgr):
        a = mgr.var("a")
        f = (a & mgr.var("b")) | (~a & mgr.var("c"))
        expected = f.cofactor({"a": True}) | f.cofactor({"a": False})
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
    """``exist`` is the sum of the cofactors and ``forall`` their
    product, one quantified variable at a time."""
    rng = random.Random(seed)
    mgr = BDDManager([f"v{i}" for i in range(6)])
    f = random_function(mgr, rng)
    names = rng.sample(mgr.variables, rng.randint(1, 4))
    some, every = f, f
    for name in names:
        some = some.cofactor({name: False}) | some.cofactor({name: True})
        every = every.cofactor({name: False}) & every.cofactor({name: True})
    assert f.exist(names) == some
    assert f.forall(names) == every


class TestQuantifierShortcut:
    """A low branch that already decides a quantified node leaves the
    high branch -- here one with a quantified level of its own --
    unvisited."""

    def test_exist_stops_at_a_true_low_branch(self, mgr):
        f = ~mgr.var("a") | (mgr.var("b") ^ mgr.var("c") ^ mgr.var("d"))
        lookups = mgr.cache_lookups
        assert f.exist(["a", "d"]).is_true()
        assert mgr.cache_lookups - lookups == 1  # the root only

    def test_forall_stops_at_a_false_low_branch(self, mgr):
        f = mgr.var("a") & (mgr.var("b") ^ mgr.var("c") ^ mgr.var("d"))
        lookups = mgr.cache_lookups
        assert f.forall(["a", "d"]).is_false()
        assert mgr.cache_lookups - lookups == 1


class TestForall:
    def test_forall_is_conjunction_of_cofactors(self, mgr):
        a = mgr.var("a")
        f = (a & mgr.var("b")) | (~a & mgr.var("c"))
        expected = f.cofactor({"a": True}) & f.cofactor({"a": False})
        assert f.forall(["a"]) == expected

    def test_forall_of_variable_is_false(self, mgr):
        assert mgr.var("a").forall(["a"]).is_false()

    def test_forall_of_tautology_is_true(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert ((a | ~a) & (b | ~b)).forall(["a", "b"]).is_true()

    def test_duality_with_exist(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) ^ mgr.var("c")
        assert f.forall(["b"]) == ~((~f).exist(["b"]))


class TestAndExist:
    def test_matches_two_step_computation(self, mgr):
        f = mgr.var("a") & (mgr.var("b") | mgr.var("c"))
        g = mgr.var("b") & mgr.var("d")
        expected = (f & g).exist(["b"])
        assert f.and_exist(g, ["b"]) == expected

    def test_empty_quantifier_set(self, mgr):
        f, g = mgr.var("a"), mgr.var("b")
        assert f.and_exist(g, []) == (f & g)

    def test_disjoint_operands_give_false(self, mgr):
        a = mgr.var("a")
        assert a.and_exist(~a, ["b"]).is_false()

    def test_with_constants(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        assert f.and_exist(mgr.true, ["b"]) == mgr.var("a")
        assert f.and_exist(mgr.false, ["b"]).is_false()


class TestCofactor:
    def test_positive_cofactor(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | mgr.var("c")
        assert f.cofactor({"a": True}) == mgr.var("b") | mgr.var("c")

    def test_negative_cofactor(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | mgr.var("c")
        assert f.cofactor({"a": False}) == mgr.var("c")

    def test_cube_cofactor_order_independent(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | (mgr.var("c") & mgr.var("d"))
        step = f.cofactor({"a": True}).cofactor({"c": False})
        combined = f.cofactor({"a": True, "c": False})
        assert step == combined

    def test_cofactor_removes_variables_from_support(self, mgr):
        f = mgr.var("a") ^ mgr.var("b")
        g = f.cofactor({"a": True})
        assert g.support() == ["b"]

    def test_shannon_expansion(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | (mgr.var("c") ^ mgr.var("d"))
        a = mgr.var("a")
        rebuilt = (a & f.cofactor({"a": True})) | (~a & f.cofactor({"a": False}))
        assert rebuilt == f

    def test_empty_cofactor_is_identity(self, mgr):
        f = mgr.var("a") | mgr.var("d")
        assert f.cofactor({}) == f


class TestCompose:
    def test_compose_single_variable(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        g = mgr.var("c") | mgr.var("d")
        composed = f.compose({"a": g})
        assert composed == (mgr.var("c") | mgr.var("d")) & mgr.var("b")

    def test_compose_is_simultaneous(self, mgr):
        # f = a XOR b; swap a and b simultaneously: result unchanged.
        f = mgr.var("a") ^ mgr.var("b")
        swapped = f.compose({"a": mgr.var("b"), "b": mgr.var("a")})
        assert swapped == f

    def test_compose_swap_asymmetric(self, mgr):
        f = mgr.var("a") & ~mgr.var("b")
        swapped = f.compose({"a": mgr.var("b"), "b": mgr.var("a")})
        assert swapped == mgr.var("b") & ~mgr.var("a")

    def test_compose_with_constant(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        assert f.compose({"a": mgr.true}) == mgr.var("b")
        assert f.compose({"a": mgr.false}).is_false()

    def test_compose_empty_mapping(self, mgr):
        f = mgr.var("a")
        assert f.compose({}) == f

    def test_compose_cross_manager_rejected(self, mgr):
        other = BDDManager(["a", "b"])
        with pytest.raises(ValueError):
            mgr.var("a").compose({"a": other.var("b")})


class TestRename:
    def test_rename_variable(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        renamed = f.rename({"a": "c"})
        assert renamed == mgr.var("c") & mgr.var("b")

    def test_rename_to_unknown_variable_raises(self, mgr):
        with pytest.raises(BDDOrderError):
            mgr.var("a").rename({"a": "brand_new"})

    def test_rename_swap(self, mgr):
        f = mgr.var("a") & ~mgr.var("b")
        swapped = f.rename({"a": "b", "b": "a"})
        assert swapped == mgr.var("b") & ~mgr.var("a")
