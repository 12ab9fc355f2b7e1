"""Unit tests for support, sat-count, model enumeration and evaluation."""

import pytest

from repro.bdd import BDDManager
from repro.bdd.analysis import evaluate, pick_one, sat_count, support

from tests.bdd.oracles import iter_models


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d"])


class TestSupport:
    def test_constant_support_empty(self, mgr):
        assert support(mgr.true) == []
        assert support(mgr.false) == []

    def test_variable_support(self, mgr):
        assert support(mgr.var("b")) == ["b"]

    def test_support_in_order(self, mgr):
        f = mgr.var("d") & mgr.var("a")
        assert support(f) == ["a", "d"]

    def test_support_excludes_cancelled_variables(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = (a & b) | (~a & b)
        assert support(f) == ["b"]


class TestSatCount:
    def test_true_counts_all_assignments(self, mgr):
        assert sat_count(mgr.true) == 16

    def test_false_counts_zero(self, mgr):
        assert sat_count(mgr.false) == 0

    def test_single_variable(self, mgr):
        assert sat_count(mgr.var("a")) == 8

    def test_conjunction(self, mgr):
        assert sat_count(mgr.var("a") & mgr.var("b")) == 4

    def test_xor(self, mgr):
        assert sat_count(mgr.var("a") ^ mgr.var("b")) == 8

    def test_restricted_care_set(self, mgr):
        f = mgr.var("a") | mgr.var("b")
        assert sat_count(f, care_vars=["a", "b"]) == 3

    @pytest.mark.parametrize("make, care, missing", [
        (lambda m: m.var("a") & m.var("c"), ["a"], "['c']"),
        (lambda m: m.var("a") & m.var("c"), ["c", "d"], "['a']"),
        # Found below a covered root; named in manager order.
        (lambda m: m.var("a") & (m.var("d") | m.var("b")), ["a", "c"],
         "['b', 'd']"),
    ], ids=["below-the-root", "at-the-root", "several"])
    def test_care_set_must_cover_support(self, mgr, make, care, missing):
        with pytest.raises(ValueError) as error:
            sat_count(make(mgr), care_vars=care)
        assert str(error.value) == (
            f"care set does not cover the support: missing {missing}")

    def test_count_with_gap_levels(self, mgr):
        # Function skipping variable b between a and c.
        f = mgr.var("a") & mgr.var("c")
        assert sat_count(f) == 4
        assert sat_count(f, care_vars=["a", "b", "c"]) == 2

    def test_count_matches_model_enumeration(self, mgr):
        f = (mgr.var("a") & ~mgr.var("c")) | (mgr.var("b") ^ mgr.var("d"))
        assert sat_count(f) == len(list(iter_models(f)))


class TestIterModels:
    def test_models_of_false_empty(self, mgr):
        assert list(iter_models(mgr.false)) == []

    def test_models_of_cube(self, mgr):
        f = mgr.cube({"a": True, "b": False})
        models = list(iter_models(f, care_vars=["a", "b"]))
        assert models == [{"a": True, "b": False}]

    def test_models_cover_all_satisfying_assignments(self, mgr):
        f = mgr.var("a") | mgr.var("b")
        models = list(iter_models(f, care_vars=["a", "b"]))
        assert len(models) == 3
        for model in models:
            assert model["a"] or model["b"]

    def test_every_model_satisfies_function(self, mgr):
        f = (mgr.var("a") ^ mgr.var("b")) & (~mgr.var("c") | mgr.var("d"))
        for model in iter_models(f):
            assert evaluate(f, model)

    def test_models_are_distinct(self, mgr):
        f = mgr.var("a") | ~mgr.var("d")
        models = [tuple(sorted(m.items())) for m in iter_models(f)]
        assert len(models) == len(set(models))

    def test_care_set_must_cover_support(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        with pytest.raises(ValueError):
            list(iter_models(f, care_vars=["a"]))


class TestPickOne:
    def test_pick_from_false_is_none(self, mgr):
        assert pick_one(mgr.false) is None

    def test_pick_satisfies(self, mgr):
        f = mgr.var("a") & ~mgr.var("c")
        model = pick_one(f)
        assert model is not None
        assert evaluate(f, model)


class TestEvaluate:
    def test_evaluate_true_constant(self, mgr):
        assert evaluate(mgr.true, {})
        assert not evaluate(mgr.false, {})

    def test_evaluate_expression(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | mgr.var("c")
        assert evaluate(f, {"a": True, "b": True, "c": False})
        assert evaluate(f, {"a": False, "b": False, "c": True})
        assert not evaluate(f, {"a": True, "b": False, "c": False})

    def test_missing_assignment_raises(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        with pytest.raises(ValueError):
            evaluate(f, {"a": True})
