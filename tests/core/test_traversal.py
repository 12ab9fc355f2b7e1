"""Tests for the symbolic traversal (Figure 5) and the closures that
share its fixpoint."""

import pytest

from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import fixpoint, symbolic_traversal
from repro.sg import build_state_graph
from repro.stg.generators import (
    csc_violation_example,
    fake_conflict_d1,
    handshake,
    irreducible_csc_example,
    master_read,
    muller_pipeline,
    mutex_element,
    parallel_handshakes,
)

EXAMPLES = [
    ("handshake", handshake),
    ("mutex", mutex_element),
    ("csc_violation", csc_violation_example),
    ("irreducible", irreducible_csc_example),
    ("fake_d1", fake_conflict_d1),
    ("pipeline4", lambda: muller_pipeline(4)),
    ("master_read2", lambda: master_read(2)),
    ("parallel3", lambda: parallel_handshakes(3)),
]


@pytest.mark.parametrize("name, factory", EXAMPLES,
                         ids=[name for name, _ in EXAMPLES])
class TestReachedSetMatchesExplicit:
    def test_state_count_matches_explicit_enumeration(self, name, factory):
        stg = factory()
        explicit = build_state_graph(stg).graph
        encoding = SymbolicEncoding(stg)
        reached, stats = symbolic_traversal(SymbolicImage(encoding))
        assert stats.num_states == explicit.num_states

    def test_every_explicit_state_is_in_reached(self, name, factory):
        stg = factory()
        explicit = build_state_graph(stg).graph
        encoding = SymbolicEncoding(stg)
        reached, _ = symbolic_traversal(SymbolicImage(encoding))
        for state in explicit.states:
            minterm = encoding.state_minterm(
                state.marking, {s: state.value_of(s) for s in stg.signals})
            assert minterm <= reached, state


class TestTraversalStrategies:
    @pytest.mark.parametrize("name, factory", EXAMPLES[:5],
                             ids=[name for name, _ in EXAMPLES[:5]])
    def test_chained_and_frontier_agree(self, name, factory):
        stg = factory()
        image = SymbolicImage(SymbolicEncoding(stg))
        chained, stats_chained = symbolic_traversal(image, strategy="chained")
        frontier, stats_frontier = symbolic_traversal(image,
                                                      strategy="frontier")
        assert chained == frontier
        assert stats_chained.num_states == stats_frontier.num_states

    def test_chained_uses_fewer_or_equal_iterations(self):
        stg = muller_pipeline(5)
        image = SymbolicImage(SymbolicEncoding(stg))
        _, chained = symbolic_traversal(image, strategy="chained")
        _, frontier = symbolic_traversal(image, strategy="frontier")
        assert chained.iterations <= frontier.iterations

    def test_unknown_strategy_rejected(self):
        encoding = SymbolicEncoding(handshake())
        with pytest.raises(ValueError):
            symbolic_traversal(SymbolicImage(encoding), strategy="depth_first")

    def test_stats_are_populated(self):
        encoding = SymbolicEncoding(muller_pipeline(3))
        reached, stats = symbolic_traversal(SymbolicImage(encoding))
        assert stats.num_states == 16
        assert stats.iterations >= 1
        assert stats.images_computed > 0
        assert stats.peak_nodes >= stats.final_nodes > 1
        assert stats.num_variables == len(encoding.all_variables)
        assert stats.final_nodes == reached.size()

    def test_restricted_transition_set(self):
        # Firing only the input transitions of the handshake stays within
        # the two states reachable by r alone.
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        reached, stats = symbolic_traversal(
            image, transitions=image.input_transitions())
        assert stats.num_states == 2


class TestFrozenClosures:
    def test_forward_closure_with_inputs_only(self):
        stg = mutex_element()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        full, _ = symbolic_traversal(image)
        closure = fixpoint(image, encoding.initial_state(),
                           image.input_transitions(), "forward", "chained",
                           restrict_to=full)
        # From the idle state both requests can rise independently: 4 states.
        assert encoding.count_states(closure) == 4

    def test_backward_closure_inverts_forward(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        full, _ = symbolic_traversal(image)
        forward = fixpoint(image, encoding.initial_state(), stg.transitions,
                           "forward", "chained", restrict_to=full)
        assert forward == full
        backward = fixpoint(image, encoding.initial_state(), stg.transitions,
                            "backward", "chained", restrict_to=full)
        assert backward == full

    def test_closure_respects_restriction(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        only_initial = encoding.initial_state()
        closure = fixpoint(image, only_initial, stg.transitions, "forward",
                           "chained", restrict_to=only_initial)
        assert closure == only_initial
