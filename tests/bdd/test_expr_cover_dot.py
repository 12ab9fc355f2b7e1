"""Tests for ISOP cover extraction and its sum-of-products output."""

import pytest

from repro.bdd import BDDManager
from repro.bdd.cover import cover_function, cube_to_string, isop, to_expression


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d"])


class TestIsop:
    def test_cover_of_false_is_empty(self, mgr):
        assert isop(mgr.false) == []

    def test_cover_of_true_is_single_empty_cube(self, mgr):
        assert isop(mgr.true) == [{}]

    def test_cover_equals_function(self, mgr):
        f = (mgr.var("a") & ~mgr.var("b")) | (mgr.var("c") & mgr.var("d"))
        cubes = isop(f)
        assert cover_function(f, cubes) == f

    def test_cover_of_xor(self, mgr):
        f = mgr.var("a") ^ mgr.var("b")
        cubes = isop(f)
        assert len(cubes) == 2
        assert cover_function(f, cubes) == f

    def test_cover_with_dont_cares_between_bounds(self, mgr):
        lower = mgr.var("a") & mgr.var("b")
        upper = mgr.var("a")
        cubes = isop(lower, upper)
        rebuilt = cover_function(lower, cubes)
        assert lower <= rebuilt
        assert rebuilt <= upper

    def test_invalid_interval_raises(self, mgr):
        with pytest.raises(ValueError):
            isop(mgr.var("a"), mgr.var("b"))

    def test_cover_is_irredundant(self, mgr):
        f = (mgr.var("a") & mgr.var("b")) | (~mgr.var("a") & mgr.var("c"))
        cubes = isop(f)
        for index in range(len(cubes)):
            remaining = [c for i, c in enumerate(cubes) if i != index]
            assert cover_function(f, remaining) != f


class TestExpressionOutput:
    def test_constants(self, mgr):
        assert to_expression(mgr.true) == "1"
        assert to_expression(mgr.false) == "0"

    def test_cube_to_string(self):
        assert cube_to_string({"a": True, "b": False}) == "a b'"
        assert cube_to_string({}) == "1"

    def test_roundtrip_through_parser(self, mgr):
        f = (mgr.var("a") & ~mgr.var("b")) | (mgr.var("c") ^ mgr.var("d"))
        cubes = isop(f)
        assert to_expression(f) == " + ".join(
            cube_to_string(cube) for cube in cubes)
        assert cover_function(f, cubes) == f

