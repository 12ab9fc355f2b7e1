"""The specialised apply routines: correctness, caches, eviction.

The kernel used to funnel every connective through the generic ``ite``;
``apply_and``/``apply_or``/``apply_xor``/``apply_diff`` now recurse
directly with their own caches and terminal short-circuits, and the
image kernel ``transfer`` fuses a cofactor, a product and a difference
into one recursion, and ``saturate`` closes a set under ``transfer``
events node by node.  These tests pin them against references built
from the plain operations on exhaustive small cases and randomised
functions, and cover the generational cache eviction that replaced the
clear-everything policy.
"""

import gc
import itertools
import random
import weakref

import pytest

from repro.bdd import BDDManager
from repro.bdd.analysis import support
from repro.bdd.manager import FALSE_ID, TRUE_ID
from repro.bdd.operators import (
    SaturationEvents,
    TransferSteps,
    saturate,
    transfer,
)

from tests.bdd.oracles import cofactor


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d", "e"])


def clear_caches(mgr):
    """Drop every memoisation table of ``mgr`` (its nodes stay)."""
    for cache in mgr._evictable:
        cache.clear()


def reference_and(mgr, f, g):
    return mgr.ite(f, g, FALSE_ID)


def reference_or(mgr, f, g):
    return mgr.ite(f, TRUE_ID, g)


def reference_xor(mgr, f, g):
    return mgr.ite(f, mgr.negate(g), g)


def reference_diff(mgr, f, g):
    return mgr.ite(f, mgr.negate(g), FALSE_ID)


def random_function(mgr, rng, depth=3):
    """A random function over the manager's variables."""
    variables = mgr.variables
    node = mgr.var(rng.choice(variables)).node
    for _ in range(depth):
        other = mgr.var(rng.choice(variables)).node
        operation = rng.choice(["and", "or", "xor", "not"])
        if operation == "and":
            node = mgr.apply_and(node, other)
        elif operation == "or":
            node = mgr.apply_or(node, other)
        elif operation == "xor":
            node = mgr.apply_xor(node, other)
        else:
            node = mgr.negate(node)
    return node


class TestSpecialisedOpsMatchIte:
    def test_terminal_cases_exhaustive(self, mgr):
        a = mgr.var("a").node
        operands = [FALSE_ID, TRUE_ID, a, mgr.negate(a)]
        for f, g in itertools.product(operands, repeat=2):
            assert mgr.apply_and(f, g) == reference_and(mgr, f, g)
            assert mgr.apply_or(f, g) == reference_or(mgr, f, g)
            assert mgr.apply_xor(f, g) == reference_xor(mgr, f, g)
            assert mgr.apply_diff(f, g) == reference_diff(mgr, f, g)

    def test_randomised_functions_match_reference(self, mgr):
        rng = random.Random(7)
        for _ in range(60):
            f = random_function(mgr, rng)
            g = random_function(mgr, rng)
            assert mgr.apply_and(f, g) == reference_and(mgr, f, g)
            assert mgr.apply_or(f, g) == reference_or(mgr, f, g)
            assert mgr.apply_xor(f, g) == reference_xor(mgr, f, g)
            assert mgr.apply_diff(f, g) == reference_diff(mgr, f, g)

    def test_implies_through_specialised_ops(self, mgr):
        rng = random.Random(11)
        for _ in range(30):
            f = random_function(mgr, rng)
            g = random_function(mgr, rng)
            assert mgr.apply_implies(f, g) == mgr.ite(f, g, TRUE_ID)

    def test_commutative_ops_share_cache_entries(self, mgr):
        f = mgr.apply_and(mgr.var("a").node, mgr.var("b").node)
        g = mgr.apply_or(mgr.var("c").node, mgr.var("d").node)
        mgr.apply_and(f, g)
        entries = len(mgr._and_cache)
        mgr.apply_and(g, f)  # swapped operands: must hit, not grow
        assert len(mgr._and_cache) == entries

    def test_function_operators_route_through_specialised_ops(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a & b).node == mgr.apply_and(a.node, b.node)
        assert (a | b).node == mgr.apply_or(a.node, b.node)
        assert (a ^ b).node == mgr.apply_xor(a.node, b.node)
        assert (a - b).node == mgr.apply_diff(a.node, b.node)


class TestCacheCounters:
    def test_lookups_and_hits_are_counted(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        before = mgr.cache_stats()
        _ = a & b
        _ = a & b  # second time: at least one hit
        after = mgr.cache_stats()
        assert after["lookups"] > before["lookups"]
        assert after["hits"] > before["hits"]

    def test_negation_probes_are_counted(self, mgr):
        f = mgr.apply_and(mgr.var("a").node, mgr.var("b").node)
        before = mgr.cache_stats()
        mgr.negate(f)  # misses on both internal nodes
        mgr.negate(f)  # hits at the root
        after = mgr.cache_stats()
        assert after["lookups"] - before["lookups"] == 3
        assert after["hits"] - before["hits"] == 1

    def test_stats_shape(self, mgr):
        stats = mgr.cache_stats()
        assert set(stats) == {"lookups", "hits", "evictions", "entries"}


class TestGenerationalEviction:
    def test_eviction_keeps_caches_bounded(self):
        mgr = BDDManager([f"x{i}" for i in range(24)], cache_limit=64)
        rng = random.Random(3)
        for _ in range(400):
            f = random_function(mgr, rng, depth=4)
            g = random_function(mgr, rng, depth=4)
            mgr.apply_and(f, g)
            mgr.apply_or(f, g)
            mgr.negate(mgr.apply_xor(f, g))
        assert mgr.cache_evictions > 0
        # Bounded: at most the limit plus one in-flight generation.
        assert len(mgr._and_cache) <= 64 + 1
        assert len(mgr._or_cache) <= 64 + 1
        assert len(mgr._not_cache) <= 64 + 1

    def test_eviction_drops_oldest_half_not_everything(self):
        mgr = BDDManager([f"x{i}" for i in range(10)], cache_limit=8)
        cache = {key: key for key in range(8)}
        mgr._evict_oldest(cache)
        assert list(cache) == [4, 5, 6, 7]  # newest half survives
        assert mgr.cache_evictions == 1

    def test_results_stay_correct_across_evictions(self):
        mgr = BDDManager([f"x{i}" for i in range(12)], cache_limit=32)
        rng = random.Random(5)
        pairs = []
        for _ in range(50):
            f = random_function(mgr, rng, depth=3)
            g = random_function(mgr, rng, depth=3)
            pairs.append((f, g, mgr.apply_and(f, g)))
        # Recompute every conjunction after heavy cache churn: node
        # canonicity means the results must be identical ids.
        for f, g, expected in pairs:
            assert mgr.apply_and(f, g) == expected

    def test_intern_key_is_stable(self, mgr):
        key = frozenset({1, 2, 3})
        first = mgr.intern_key(("quant", key))
        second = mgr.intern_key(("quant", frozenset({3, 2, 1})))
        assert first == second
        assert mgr.intern_key(("cof", key)) != first


def reference_transfer(mgr, f, steps, drop):
    """The unfused pipeline: cofactor, then ``&`` the assigned cube, then ``-``."""
    required = {name: require for name, (require, _) in steps.items()}
    assigned = mgr.cube({name: assign for name, (_, assign) in steps.items()})
    return (cofactor(f, required) & assigned) - drop


def steps_of(mgr, steps):
    """The :class:`TransferSteps` of a ``{name: (require, assign)}`` cube."""
    return TransferSteps(mgr, sorted(
        (mgr.level_of(name), require, assign)
        for name, (require, assign) in steps.items()))


def random_steps(mgr, rng):
    """Up to four ``(require, assign)`` steps, self-loops (1 -> 1) included."""
    names = rng.sample(mgr.variables, rng.randint(1, 4))
    return {name: (rng.random() < 0.5, rng.random() < 0.5) for name in names}


class TestTransfer:
    """``transfer`` equals cofactor-then-``&``-then-``-`` on random input."""

    def cases(self, mgr, rng, count):
        drops = [mgr.false, mgr.true]
        for index in range(count):
            f = mgr._wrap(random_function(mgr, rng, depth=4))
            steps = random_steps(mgr, rng)
            drop = (drops[index % 2] if index % 3 == 0
                    else mgr._wrap(random_function(mgr, rng, depth=4)))
            yield f, steps, drop

    def test_matches_the_unfused_reference(self):
        mgr = BDDManager([f"x{i}" for i in range(8)])
        rng = random.Random(17)
        skipped = self_loops = 0
        for f, steps, drop in self.cases(mgr, rng, 300):
            resolved = steps_of(mgr, steps)
            assert transfer(f, resolved, drop) == reference_transfer(
                mgr, f, steps, drop), steps
            skipped += bool(set(steps) - set(support(f)))
            self_loops += (True, True) in steps.values()
        # The draws exercise literal insertion and kept-marked steps.
        assert skipped > 50 and self_loops > 50

    def test_drop_defaults_to_false(self, mgr):
        rng = random.Random(23)
        for f, steps, _ in self.cases(mgr, rng, 40):
            resolved = steps_of(mgr, steps)
            assert transfer(f, resolved) == transfer(f, resolved, mgr.false)

    def test_tiny_cache_limit_and_garbage_collection(self):
        mgr = BDDManager([f"x{i}" for i in range(10)], cache_limit=8)
        rng = random.Random(29)
        for f, steps, drop in self.cases(mgr, rng, 120):
            resolved = steps_of(mgr, steps)
            result = transfer(f, resolved, drop)
            clear_caches(mgr)
            assert result == reference_transfer(mgr, f, steps, drop)
            assert transfer(f, resolved, drop) == result
        assert mgr.cache_evictions > 0
        assert len(mgr._transfer_cache) <= 8 + 1

    def test_steps_from_another_manager_are_rejected(self, mgr):
        other = BDDManager(mgr.variables)
        steps = steps_of(other, {"a": (True, False)})
        with pytest.raises(ValueError):
            transfer(mgr.var("b"), steps)


def reference_closure(mgr, f, events):
    """The plain least fixpoint: fire every event until nothing is new."""
    reached = f
    while True:
        grown = reached
        for steps in events:
            grown = grown | reference_transfer(mgr, reached, steps,
                                               mgr.false)
        if grown == reached:
            return reached
        reached = grown


def resolve(mgr, events):
    return SaturationEvents(mgr, [steps_of(mgr, steps)
                                  for steps in events])


class TestSaturate:
    """``saturate`` equals the plain fixpoint of ``transfer`` firings."""

    def cases(self, mgr, rng, count):
        constants = [mgr.false, mgr.true]
        for index in range(count):
            f = (constants[index % 2] if index % 10 == 0
                 else mgr._wrap(random_function(mgr, rng, depth=4)))
            events = [random_steps(mgr, rng)
                      for _ in range(rng.randint(1, 6))]
            yield f, events

    def test_matches_the_plain_fixpoint(self):
        mgr = BDDManager([f"x{i}" for i in range(8)])
        rng = random.Random(31)
        grew = 0
        for f, events in self.cases(mgr, rng, 200):
            closure = saturate(f, resolve(mgr, events))
            assert closure == reference_closure(mgr, f, events), events
            grew += closure != f
        assert grew > 60  # the draws are not vacuous

    def test_rounds_report_their_firings_and_growth(self):
        mgr = BDDManager([f"x{i}" for i in range(8)])
        rng = random.Random(37)
        for f, events in self.cases(mgr, rng, 60):
            resolved = resolve(mgr, events)
            rounds = []
            closure = saturate(f, resolved,
                               lambda *args: rounds.append(args))
            assert all(level in resolved.by_top and firings > 0
                       for level, firings, _ in rounds)
            # Nodes a firing builds are saturated from scratch, so rounds
            # may grow them even when ``f`` itself is already closed.
            if closure != f:
                assert any(fresh for *_, fresh in rounds)

    def test_equal_event_sets_share_one_cache_id(self, mgr):
        steps = [{"a": (True, False), "c": (False, True)},
                 {"b": (False, True)}]
        forward = resolve(mgr, steps)
        assert resolve(mgr, steps[::-1] + steps).ident == forward.ident
        assert resolve(mgr, steps[:1]).ident != forward.ident

    def test_tiny_cache_limit_and_garbage_collection(self):
        mgr = BDDManager([f"x{i}" for i in range(10)], cache_limit=8)
        rng = random.Random(41)
        for f, events in self.cases(mgr, rng, 80):
            resolved = resolve(mgr, events)
            result = saturate(f, resolved)
            clear_caches(mgr)
            assert result == reference_closure(mgr, f, events)
            assert saturate(f, resolved) == result
        assert mgr.cache_evictions > 0
        assert len(mgr._sat_cache) <= 8 + 1
        assert len(mgr._fire_cache) <= 8 + 1

    def test_a_finished_saturation_leaves_no_cycle_holding_the_manager(
            self):
        # Reference counting alone must free the manager once its last
        # user is gone: a cycle through the recursion's closures would
        # keep every BDD of a finished run alive until the cycle
        # collector ran.
        gc.disable()
        try:
            mgr = BDDManager([f"x{i}" for i in range(4)])
            events = resolve(mgr, [{"x0": (True, False), "x1": (False, True)},
                                   {"x1": (True, False), "x2": (False, True)}])
            closure = saturate(mgr.var("x0"), events)
            assert closure != mgr.var("x0")
            freed = weakref.ref(mgr)
            del mgr, events, closure
            assert freed() is None
        finally:
            gc.enable()

    def test_events_from_another_manager_are_rejected(self, mgr):
        other = BDDManager(mgr.variables)
        with pytest.raises(ValueError):
            saturate(mgr.var("b"), resolve(other, [{"a": (True, False)}]))
        with pytest.raises(ValueError):
            SaturationEvents(mgr, [steps_of(other, {"a": (True, False)})])
