"""Tests for the FORCE variable-ordering heuristic."""

from repro.bdd import force_ordering


class TestForceOrdering:
    def test_result_is_permutation(self):
        variables = ["a", "b", "c", "d", "e"]
        order = force_ordering(variables, [["a", "c"], ["b", "d"]])
        assert sorted(order) == sorted(variables)

    def test_no_groups_returns_input_order(self):
        variables = ["x", "y", "z"]
        assert force_ordering(variables, []) == variables

    def test_related_variables_become_adjacent(self):
        # Two independent pairs placed far apart in the initial order.
        variables = ["a0", "b0", "c0", "a1", "b1", "c1"]
        groups = [["a0", "a1"], ["b0", "b1"], ["c0", "c1"]]
        order = force_ordering(variables, groups)
        for prefix in ("a", "b", "c"):
            positions = [order.index(f"{prefix}0"), order.index(f"{prefix}1")]
            assert abs(positions[0] - positions[1]) == 1

    def test_unknown_group_members_ignored(self):
        order = force_ordering(["a", "b"], [["a", "ghost", "b"]])
        assert sorted(order) == ["a", "b"]

    def test_deterministic(self):
        variables = [f"v{i}" for i in range(10)]
        groups = [[f"v{i}", f"v{(i * 3) % 10}"] for i in range(10)]
        assert force_ordering(variables, groups) == force_ordering(variables, groups)
