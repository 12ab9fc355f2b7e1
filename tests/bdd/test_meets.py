"""``meets``: which of many cubes a function intersects, in one pass.

Each cube is a literal mapping ``{variable: value}``.  The oracle is the
product: ``f.meets(cubes)[i]`` must equal ``not (f &
manager.cube(cubes[i])).is_false()``.
"""

import random

import pytest

from repro.bdd import BDDManager, BDDOrderError
from repro.bdd.operators import meets

VARIABLES = [f"v{i}" for i in range(8)]


@pytest.fixture
def mgr():
    return BDDManager(VARIABLES)


def random_function(manager, rng):
    """A random truth table over a random subset of the variables, so the
    function skips some levels."""
    support = rng.sample(VARIABLES, rng.randint(1, 6))
    result = manager.false
    for _ in range(rng.randint(1, 2 ** len(support))):
        result = result | manager.cube(
            {name: rng.random() < 0.5 for name in support})
    return result


def random_literals(rng):
    """A cube over any variables (possibly none), either polarity each."""
    names = rng.sample(VARIABLES, rng.randint(0, 4))
    return {name: rng.random() < 0.5 for name in names}


def internal_nodes(manager, f):
    return [node for node in manager.descendants(f.node)
            if not manager.is_terminal(node)]


@pytest.mark.parametrize("seed", range(40))
def test_matches_the_product_oracle(mgr, seed):
    rng = random.Random(seed)
    f = random_function(mgr, rng)
    cubes = [random_literals(rng) for _ in range(12)]
    assert f.meets(cubes) == [not (f & mgr.cube(literals)).is_false()
                              for literals in cubes]


def test_constant_roots(mgr):
    cubes = [{}, {"v1": True}, {"v0": False, "v7": True}]
    assert mgr.true.meets(cubes) == [True, True, True]
    assert mgr.false.meets(cubes) == [False, False, False]


def test_cube_without_literals_meets_every_satisfiable_function(mgr):
    f = mgr.var("v2") & ~mgr.var("v5")
    assert f.meets([{}]) == [True]
    assert mgr.false.meets([{}]) == [False]


def test_literals_on_levels_the_function_skips(mgr):
    f = mgr.var("v0") & mgr.var("v7")  # skips v1..v6
    cubes = [{"v3": True}, {"v3": False},
             {"v0": True, "v4": False},
             {"v4": True, "v7": False}]
    assert f.meets(cubes) == [True, True, True, False]


def test_both_polarities(mgr):
    f = mgr.var("v2") | mgr.var("v6")
    cubes = [{"v2": False, "v6": False},
             {"v2": False, "v6": True},
             {"v2": True, "v6": False}]
    assert f.meets(cubes) == [False, True, True]
    assert (~f).meets(cubes) == [True, False, False]


def test_no_cubes(mgr):
    assert mgr.var("v1").meets([]) == []


def test_function_method_is_the_operator(mgr):
    rng = random.Random(3)
    f = random_function(mgr, rng)
    cubes = [random_literals(rng) for _ in range(5)]
    assert f.meets(cubes) == meets(f, cubes)


def test_unknown_variable_raises(mgr):
    with pytest.raises(BDDOrderError, match="v9"):
        mgr.var("v2").meets([{"v1": True}, {"v9": False}])


@pytest.mark.parametrize("seed", range(10))
def test_each_visited_node_counts_one_lookup_and_none_is_created(mgr, seed):
    rng = random.Random(seed)
    f = random_function(mgr, rng)
    # A literal on the last level: every node of f lies at or above it.
    cubes = [random_literals(rng), {VARIABLES[-1]: True}]
    lookups, nodes = mgr.cache_lookups, mgr.created_nodes
    f.meets(cubes)
    assert mgr.cache_lookups - lookups == len(internal_nodes(mgr, f))
    assert mgr.created_nodes == nodes


def test_nodes_below_the_deepest_literal_are_not_visited(mgr):
    f = (mgr.var("v0") & mgr.var("v5")) | (~mgr.var("v0") & mgr.var("v6"))
    cubes = [{"v0": True}, {"v0": False}]
    lookups = mgr.cache_lookups
    assert f.meets(cubes) == [True, True]
    assert mgr.cache_lookups - lookups == 1  # only the v0 root
