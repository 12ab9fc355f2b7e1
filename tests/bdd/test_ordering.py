"""Tests for the FORCE variable-ordering heuristic and event spans."""

from repro.bdd.ordering import force_order, spans
from repro.core.encoding import SymbolicEncoding
from repro.stg.generators import build_example
from repro.stg.parser import parse_g
from repro.stg.writer import to_g_string
from tests.core.order_oracle import co_occurrence_groups


def force_ordering(variables, groups):
    """:func:`force_order` over names, numbered in name order as the
    STG encoding numbers its variables; members outside ``variables``
    are left out."""
    names = sorted(variables)
    ids = {name: index for index, name in enumerate(names)}
    order = force_order([ids[name] for name in variables],
                        [[ids[name] for name in group if name in ids]
                         for group in groups])
    return [names[index] for index in order]


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

    def test_group_order_and_repeated_members_do_not_matter(self):
        variables = [f"v{i}" for i in range(8)]
        groups = [[f"v{i}", f"v{(i * 3) % 8}", f"v{(i + 5) % 8}"]
                  for i in range(8)]
        order = force_ordering(variables, groups)
        assert force_ordering(variables, groups[::-1]) == order
        assert force_ordering(variables,
                              [group + group[:1] for group in groups]) == order


class TestSpans:
    def test_span_is_the_distance_between_first_and_last_member(self):
        order = ["a", "b", "c", "d"]
        assert spans(order, [["a", "d"], ["c", "b"], ["b"]]) == [3, 1, 0]

    def test_members_outside_the_order_are_ignored(self):
        assert spans(["a", "b"], [["a", "ghost", "b"], ["ghost"]]) == [1]


def total_event_span(family, scale):
    """Summed event span of the default order of a family instance's
    ``.g`` round trip -- the net as ``batch-check`` parses it."""
    stg = parse_g(to_g_string(build_example(family, scale)))
    encoding = SymbolicEncoding(stg)
    return sum(spans(encoding.all_variables, co_occurrence_groups(stg)))


class TestDefaultOrderSpans:
    def test_wide_hyperedges_are_weighted_down_on_master_read(self):
        # 563 seeded with declaration order and unweighted; the
        # token-flow seed alone still gives 527 -- the go/done hub
        # places' wide fork/join hyperedges need the 1/(|e|-1) weight.
        assert total_event_span("master_read", 8) <= 400

    def test_token_flow_seed_shortens_muller_pipeline(self):
        # 324 seeded with declaration order, 335 with the weight alone.
        assert total_event_span("muller_pipeline", 14) <= 200
