"""Unit tests for the BDD manager: node canonicity, ITE, constants, GC."""

import pytest

from repro.bdd import BDDManager, BDDOrderError


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d"])


class TestVariables:
    def test_variables_keep_declaration_order(self, mgr):
        assert mgr.variables == ["a", "b", "c", "d"]

    def test_num_vars(self, mgr):
        assert mgr.num_vars == 4

    def test_add_var_appends(self, mgr):
        mgr.add_var("e")
        assert mgr.variables[-1] == "e"
        assert mgr.level_of("e") == 4

    def test_duplicate_declaration_rejected(self, mgr):
        with pytest.raises(BDDOrderError):
            mgr.add_var("a")

    def test_unknown_variable_rejected(self, mgr):
        with pytest.raises(BDDOrderError):
            mgr.var("zz")

    def test_level_roundtrip(self, mgr):
        for name in mgr.variables:
            assert mgr.var_at_level(mgr.level_of(name)) == name


class TestConstants:
    def test_true_false_distinct(self, mgr):
        assert mgr.true != mgr.false

    def test_true_is_true(self, mgr):
        assert mgr.true.is_true()
        assert not mgr.true.is_false()

    def test_false_is_false(self, mgr):
        assert mgr.false.is_false()

    def test_bool_conversion_raises(self, mgr):
        with pytest.raises(TypeError):
            bool(mgr.var("a"))


class TestCanonicity:
    def test_same_variable_same_node(self, mgr):
        assert mgr.var("a") == mgr.var("a")

    def test_redundant_node_collapses(self, mgr):
        a = mgr.var("a")
        f = (a & mgr.true) | (a & mgr.false)
        assert f == a

    def test_structural_sharing(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & b
        g = a & b
        assert f.node == g.node

    def test_double_negation(self, mgr):
        f = mgr.var("a") ^ mgr.var("c")
        assert ~~f == f

    def test_tautology_collapses_to_true(self, mgr):
        a = mgr.var("a")
        assert (a | ~a).is_true()

    def test_contradiction_collapses_to_false(self, mgr):
        a = mgr.var("a")
        assert (a & ~a).is_false()


class TestIte:
    def test_ite_terminal_cases(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.true.ite(a, b) == a
        assert mgr.false.ite(a, b) == b
        assert a.ite(mgr.true, mgr.false) == a

    def test_ite_equal_branches(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert a.ite(b, b) == b

    def test_ite_matches_formula(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        assert a.ite(b, c) == (a & b) | (~a & c)

    def test_xor_via_ite(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a ^ b) == (a & ~b) | (~a & b)

    def test_implication(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a >> b) == (~a | b)

    def test_difference(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a - b) == (a & ~b)


class TestCube:
    def test_empty_cube_is_true(self, mgr):
        assert mgr.cube({}).is_true()

    def test_cube_matches_conjunction(self, mgr):
        cube = mgr.cube({"a": True, "c": False, "d": True})
        expected = mgr.var("a") & ~mgr.var("c") & mgr.var("d")
        assert cube == expected

    def test_cube_size_is_linear(self, mgr):
        cube = mgr.cube({"a": True, "b": True, "c": True, "d": True})
        # 4 internal nodes + 2 terminals
        assert cube.size() == 6


class TestComparisons:
    def test_le_is_implication_check(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a & b) <= a
        assert not (a <= (a & b))

    def test_lt_is_strict(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a & b) < a
        assert not (a < a)

    def test_disjoint(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a & b).disjoint(a & ~b)
        assert not a.disjoint(a & b)

    def test_cross_manager_mix_rejected(self, mgr):
        other = BDDManager(["a"])
        with pytest.raises(ValueError):
            mgr.var("a") & other.var("a")

    def test_non_function_operand_rejected(self, mgr):
        with pytest.raises(TypeError):
            mgr.var("a") & 1  # type: ignore[operator]


class TestNodeLifetime:
    """Nodes live as long as their manager."""

    def test_rebuilding_a_dropped_function_allocates_no_node(self):
        mgr = BDDManager([f"x{i}" for i in range(12)])

        def parity():
            f = mgr.false
            for name in mgr.variables:
                f = f ^ mgr.var(name)
            return f

        node = parity().node  # every handle dropped at once
        nodes = mgr.num_nodes
        assert parity().node == node
        assert mgr.num_nodes == nodes


class TestSizes:
    def test_constant_size(self, mgr):
        assert mgr.true.size() == 1
        assert mgr.false.size() == 1

    def test_variable_size(self, mgr):
        assert mgr.var("a").size() == 3

    def test_size_counts_shared_nodes_once(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = (a & b) | (~a & b)  # collapses to b
        assert f == b
        assert f.size() == 3
