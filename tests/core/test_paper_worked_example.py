"""Executable versions of the paper's worked material.

* Section 4 walks through the computation of ``delta_N(M, t)`` on the
  Petri net of Figure 1 by cofactoring with ``E(t)``, multiplying by
  ``NPM(t)``, cofactoring with ``NSM(t)`` and multiplying by ``ASM(t)``.
  The test replays each intermediate step on the mutual-exclusion net and
  checks it against the explicitly fired markings.
* Figure 2 relates the reachability graph, the state graph and the full
  state graph of the same element.
* Figure 3 relates the conflict-based specification D1 and the concurrent
  specification D2 through their (identical) signal behaviour.
"""

import pytest

from repro.bdd.analysis import support
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import symbolic_traversal
from repro.petri import build_reachability_graph
from repro.sg import build_state_graph
from repro.sg.traces import bounded_trace_equivalent
from repro.stg.generators import fake_conflict_d1, fake_conflict_d2, mutex_element

from tests.bdd.oracles import cofactor
from tests.core.markings import (
    all_successors_marked,
    marking_minterm,
    markings_to_function,
    no_predecessor_marked,
)


@pytest.fixture
def mutex():
    stg = mutex_element()
    encoding = SymbolicEncoding(stg)
    return stg, encoding, SymbolicImage(encoding)


class TestSection4WorkedExample:
    """Step-by-step delta_N computation on the Figure 1 net."""

    def test_characteristic_function_of_marking_set(self, mutex):
        stg, encoding, _ = mutex
        reach = build_reachability_graph(stg.net)
        markings = reach.markings[:5]
        chi = markings_to_function(encoding, markings)
        assert chi.sat_count(care_vars=encoding.place_variables) == 5
        for marking in markings:
            assert marking_minterm(encoding, marking) <= chi

    def test_delta_n_pipeline_steps(self, mutex):
        stg, encoding, image = mutex
        transition = "r1+"
        reach = build_reachability_graph(stg.net)
        enabled_markings = [m for m in reach.markings
                            if stg.net.is_enabled(transition, m)]
        disabled_markings = [m for m in reach.markings
                             if not stg.net.is_enabled(transition, m)]
        chi = markings_to_function(
            encoding, enabled_markings[:3] + disabled_markings[:3])

        # Step 1: the cofactor w.r.t. E(t) selects the markings enabling t
        # and removes the predecessor places from the support.
        predecessor_vars = {encoding.place_variable(p)
                            for p in stg.net.preset_of_transition(transition)}
        successor_vars = {encoding.place_variable(p)
                          for p in stg.net.postset_of_transition(transition)}
        step1 = cofactor(chi, {variable: True
                               for variable in predecessor_vars})
        assert not predecessor_vars & set(support(step1))

        # Step 2: the product with NPM(t) removes the tokens.
        step2 = step1 & no_predecessor_marked(encoding, transition)
        for variable in predecessor_vars:
            assert (step2 & encoding.manager.var(variable)).is_false()

        # Step 3+4: cofactor w.r.t. NSM(t), product with ASM(t) adds the
        # tokens to every successor place.
        step3 = cofactor(step2, {variable: False
                                 for variable in successor_vars})
        step4 = step3 & all_successors_marked(encoding, transition)
        for variable in successor_vars:
            assert step4 <= encoding.manager.var(variable)

        # The full pipeline equals the explicitly fired marking set.
        expected = markings_to_function(
            encoding,
            [stg.net.fire(transition, m) for m in enabled_markings[:3]])
        assert step4 == expected


class TestFigure2StateModels:
    """Reachability graph vs state graph vs full state graph."""

    def test_marking_and_state_counts(self):
        stg = mutex_element()
        reach = build_reachability_graph(stg.net)
        full = build_state_graph(stg).graph
        # For this specification every marking induces exactly one code.
        assert full.num_states == reach.num_markings
        assert full.distinct_codes() == full.num_states

    def test_symbolic_traversal_matches_both(self):
        stg = mutex_element()
        encoding = SymbolicEncoding(stg)
        reached, stats = symbolic_traversal(SymbolicImage(encoding))
        reach = build_reachability_graph(stg.net)
        assert stats.num_states == reach.num_markings
        markings_only = reached.exist(encoding.signal_variables)
        assert markings_only.sat_count(
            care_vars=encoding.place_variables) == reach.num_markings

    def test_grants_are_mutually_exclusive_in_every_state(self):
        stg = mutex_element()
        full = build_state_graph(stg).graph
        for state in full.states:
            assert not (state.value_of("g1") and state.value_of("g2"))


class TestFigure3Equivalence:
    """D1 (conflict form) and D2 (concurrent form) have the same behaviour."""

    def test_same_signal_traces(self):
        d1, d2 = fake_conflict_d1(), fake_conflict_d2()
        g1 = build_state_graph(d1).graph
        g2 = build_state_graph(d2).graph
        assert bounded_trace_equivalent(g1, d1, g2, d2, ["a", "b", "c"], 6)

    def test_same_code_sets(self):
        d1, d2 = fake_conflict_d1(), fake_conflict_d2()
        g1 = build_state_graph(d1).graph
        g2 = build_state_graph(d2).graph
        codes1 = {s.code_string(["a", "b", "c"]) for s in g1.states}
        codes2 = {s.code_string(["a", "b", "c"]) for s in g2.states}
        assert codes1 == codes2 == {"000", "100", "010", "110", "111"}

    def test_signal_enabling_agrees_per_code(self):
        d1, d2 = fake_conflict_d1(), fake_conflict_d2()
        g1 = build_state_graph(d1).graph
        g2 = build_state_graph(d2).graph

        def enabling_by_code(graph, stg):
            result = {}
            for state in graph.states:
                code = state.code_string(["a", "b", "c"])
                result.setdefault(code, set()).update(
                    graph.enabled_signals(state))
            return result

        assert enabling_by_code(g1, d1) == enabling_by_code(g2, d2)
