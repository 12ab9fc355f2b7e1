"""Property-based tests of the BDD algebra (hypothesis).

Random boolean expressions over a small variable set are generated as
ASTs, evaluated both through the BDD engine and through direct truth-table
evaluation, and the two must agree.  Additional laws (De Morgan, Shannon,
quantifier duality, ISOP covers) are checked on the same random functions.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.bdd.analysis import sat_count, support
from repro.bdd.cover import cover_function, isop

from tests.bdd.oracles import cofactor, iter_models

VARIABLES = ["v0", "v1", "v2", "v3", "v4"]


# ---------------------------------------------------------------------------
# Random expression ASTs
# ---------------------------------------------------------------------------
def _expressions():
    leaves = st.sampled_from(VARIABLES + ["0", "1"])

    def extend(children):
        unary = st.tuples(st.just("not"), children)
        binary = st.tuples(
            st.sampled_from(["and", "or", "xor", "implies"]), children, children)
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=12)


def _eval_ast(ast, assignment):
    if isinstance(ast, str):
        if ast == "0":
            return False
        if ast == "1":
            return True
        return assignment[ast]
    if ast[0] == "not":
        return not _eval_ast(ast[1], assignment)
    left = _eval_ast(ast[1], assignment)
    right = _eval_ast(ast[2], assignment)
    if ast[0] == "and":
        return left and right
    if ast[0] == "or":
        return left or right
    if ast[0] == "xor":
        return left != right
    if ast[0] == "implies":
        return (not left) or right
    raise AssertionError(f"unknown operator {ast[0]!r}")


def _build_bdd(manager, ast):
    if isinstance(ast, str):
        if ast == "0":
            return manager.false
        if ast == "1":
            return manager.true
        return manager.var(ast)
    if ast[0] == "not":
        return ~_build_bdd(manager, ast[1])
    left = _build_bdd(manager, ast[1])
    right = _build_bdd(manager, ast[2])
    if ast[0] == "and":
        return left & right
    if ast[0] == "or":
        return left | right
    if ast[0] == "xor":
        return left ^ right
    if ast[0] == "implies":
        return ~left | right
    raise AssertionError(f"unknown operator {ast[0]!r}")


def _all_assignments():
    for bits in itertools.product([False, True], repeat=len(VARIABLES)):
        yield dict(zip(VARIABLES, bits))


@pytest.fixture
def mgr():
    return BDDManager(VARIABLES)


class TestSemanticsAgainstTruthTable:
    @settings(max_examples=60, deadline=None)
    @given(ast=_expressions())
    def test_bdd_matches_direct_evaluation(self, ast):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast)
        for assignment in _all_assignments():
            assert f.evaluate(assignment) == _eval_ast(ast, assignment)

    @settings(max_examples=60, deadline=None)
    @given(ast=_expressions())
    def test_sat_count_matches_truth_table(self, ast):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast)
        expected = sum(_eval_ast(ast, a) for a in _all_assignments())
        assert sat_count(f, care_vars=VARIABLES) == expected


class TestAlgebraicLaws:
    @settings(max_examples=40, deadline=None)
    @given(ast1=_expressions(), ast2=_expressions())
    def test_de_morgan(self, ast1, ast2):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast1)
        g = _build_bdd(manager, ast2)
        assert ~(f & g) == (~f | ~g)
        assert ~(f | g) == (~f & ~g)

    @settings(max_examples=40, deadline=None)
    @given(ast=_expressions(), variable=st.sampled_from(VARIABLES))
    def test_shannon_expansion(self, ast, variable):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast)
        x = manager.var(variable)
        rebuilt = (x & cofactor(f, {variable: True})) | \
            (~x & cofactor(f, {variable: False}))
        assert rebuilt == f

    @settings(max_examples=40, deadline=None)
    @given(ast=_expressions(), variable=st.sampled_from(VARIABLES))
    def test_existential_abstraction_is_upper_bound(self, ast, variable):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast)
        assert f <= f.exist([variable])

    @settings(max_examples=40, deadline=None)
    @given(ast=_expressions())
    def test_isop_cover_is_exact(self, ast):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast)
        assert cover_function(f, isop(f)) == f

    @settings(max_examples=30, deadline=None)
    @given(ast=_expressions())
    def test_negation_involution_and_sat_complement(self, ast):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast)
        assert ~~f == f
        total = 1 << len(VARIABLES)
        assert sat_count(f) + sat_count(~f) == total


class TestQueriesAgainstProducts:
    """The one-recursion split, the non-building ``disjoint`` and the
    one-walk ``pick_one`` against the operations they replace."""

    @settings(max_examples=60, deadline=None)
    @given(ast1=_expressions(), ast2=_expressions())
    def test_split_is_the_product_and_the_difference(self, ast1, ast2):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast1)
        g = _build_bdd(manager, ast2)
        assert f.split(g) == (f & g, f - g)

    @settings(max_examples=60, deadline=None)
    @given(ast1=_expressions(), ast2=_expressions())
    def test_disjoint_agrees_with_the_empty_product(self, ast1, ast2):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast1)
        g = _build_bdd(manager, ast2)
        nodes = manager.num_nodes
        disjoint = f.disjoint(g)
        assert manager.num_nodes == nodes  # no node built
        assert disjoint == (f & g).is_false()

    @settings(max_examples=60, deadline=None)
    @given(ast=_expressions(),
           care=st.sets(st.sampled_from(VARIABLES)))
    def test_pick_one_is_the_first_model(self, ast, care):
        manager = BDDManager(VARIABLES)
        f = _build_bdd(manager, ast)
        care_vars = sorted(care)
        if f.is_false() or set(support(f)) <= care:
            assert f.pick_one(care_vars) == \
                next(iter_models(f, care_vars), None)
        else:
            with pytest.raises(ValueError):
                f.pick_one(care_vars)
