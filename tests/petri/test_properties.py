"""Property-based tests of Petri-net invariants (hypothesis).

Random safe marked graphs (closed chains and fork/join nets with random
branch lengths) are generated and the classical invariants are checked:
token conservation on cycles, safeness preservation, persistency of marked
graphs, and agreement between the firing rule and reachability queries.
"""

from hypothesis import given, settings, strategies as st

from repro.petri import build_reachability_graph
from repro.petri.analysis import check_boundedness, check_transition_persistency

from tests.petri.builders import chain, parallel_join


@st.composite
def closed_chains(draw):
    length = draw(st.integers(min_value=1, max_value=7))
    marked = draw(st.integers(min_value=0, max_value=length - 1))
    names = [f"t{i}" for i in range(length)]
    return chain(names, closed=True, marked_place=marked)


@st.composite
def fork_join_nets(draw):
    num_branches = draw(st.integers(min_value=1, max_value=3))
    branches = []
    for index in range(num_branches):
        length = draw(st.integers(min_value=1, max_value=3))
        branches.append([f"b{index}_{step}" for step in range(length)])
    return parallel_join(branches)


class TestClosedChainInvariants:
    @settings(max_examples=30, deadline=None)
    @given(net=closed_chains())
    def test_token_count_invariant(self, net):
        graph = build_reachability_graph(net)
        total = net.initial_marking.total_tokens()
        for marking in graph.markings:
            assert marking.total_tokens() == total

    @settings(max_examples=30, deadline=None)
    @given(net=closed_chains())
    def test_reachable_markings_equal_chain_length(self, net):
        graph = build_reachability_graph(net)
        assert graph.num_markings == net.num_transitions

    @settings(max_examples=30, deadline=None)
    @given(net=closed_chains())
    def test_marked_graphs_are_persistent(self, net):
        assert check_transition_persistency(net).persistent


class TestForkJoinInvariants:
    @settings(max_examples=25, deadline=None)
    @given(net=fork_join_nets())
    def test_fork_join_is_safe(self, net):
        result = check_boundedness(net)
        assert result.bounded and result.safe

    @settings(max_examples=25, deadline=None)
    @given(net=fork_join_nets())
    def test_fork_join_state_count_is_product_plus_two(self, net):
        # Between fork and join each branch of length L contributes L+1
        # positions; idle and done add two more markings.
        graph = build_reachability_graph(net)
        product = 1
        lengths = {}
        for name in net.transitions:
            if name.startswith("b") and "_" in name:
                branch = name.split("_")[0]
                lengths[branch] = lengths.get(branch, 0) + 1
        for count in lengths.values():
            product *= count + 1
        assert graph.num_markings == product + 2

    @settings(max_examples=25, deadline=None)
    @given(net=fork_join_nets())
    def test_every_transition_fires(self, net):
        graph = build_reachability_graph(net)
        fired = {transition for marking in graph.markings
                 for transition, _ in graph.successors(marking)}
        assert fired == set(net.transitions)

    @settings(max_examples=25, deadline=None)
    @given(net=fork_join_nets())
    def test_successor_markings_are_in_graph(self, net):
        graph = build_reachability_graph(net)
        reachable = set(graph.markings)
        for marking in graph.markings:
            for transition in net.enabled_transitions(marking):
                assert net.fire(transition, marking) in reachable
