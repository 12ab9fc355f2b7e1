"""Tests for the symbolic encoding of STG full states."""

import pytest

from repro.bdd.analysis import support
from repro.core.encoding import ORDERING_STRATEGIES, SymbolicEncoding
from repro.petri import Marking
from repro.stg.generators import handshake, muller_pipeline, mutex_element

from tests.core.markings import marking_minterm, markings_to_function


class TestVariables:
    def test_one_variable_per_place_and_signal(self):
        stg = mutex_element()
        encoding = SymbolicEncoding(stg)
        assert len(encoding.place_variables) == 9
        assert len(encoding.signal_variables) == 4
        assert len(encoding.all_variables) == 13

    def test_variable_names_are_prefixed(self):
        encoding = SymbolicEncoding(handshake())
        assert all(name.startswith("p:") for name in encoding.place_variables)
        assert all(name.startswith("s:") for name in encoding.signal_variables)

    def test_place_and_signal_projections(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        assert support(encoding.place("<r+,a+>")) == ["p:<r+,a+>"]
        assert support(encoding.signal("r")) == ["s:r"]

    def test_unknown_place_or_signal_rejected(self):
        encoding = SymbolicEncoding(handshake())
        with pytest.raises(Exception):
            encoding.place("ghost")
        with pytest.raises(Exception):
            encoding.signal("ghost")

    @pytest.mark.parametrize("strategy", ORDERING_STRATEGIES)
    def test_every_strategy_is_a_permutation(self, strategy):
        stg = muller_pipeline(3)
        encoding = SymbolicEncoding(stg, ordering=strategy)
        assert sorted(encoding.all_variables) == sorted(
            encoding.place_variables + encoding.signal_variables)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            SymbolicEncoding(handshake(), ordering="random_nonsense")

    def test_declaration_strategy_order(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg, ordering="declaration")
        variables = encoding.manager.variables
        place_positions = [variables.index(v) for v in encoding.place_variables]
        signal_positions = [variables.index(v) for v in encoding.signal_variables]
        assert max(place_positions) < min(signal_positions)

    def test_signals_first_strategy_order(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg, ordering="signals_first")
        variables = encoding.manager.variables
        place_positions = [variables.index(v) for v in encoding.place_variables]
        signal_positions = [variables.index(v) for v in encoding.signal_variables]
        assert max(signal_positions) < min(place_positions)


class TestStateConstruction:
    def test_marking_minterm_is_single_assignment(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        minterm = marking_minterm(encoding, stg.initial_marking())
        assert minterm.sat_count(care_vars=encoding.place_variables) == 1

    def test_initial_state_minterm(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        initial = encoding.initial_state()
        assert encoding.count_states(initial) == 1
        model = initial.pick_one(encoding.all_variables)
        decoded = encoding.decode_state(model)
        assert decoded["marking"] == stg.initial_marking()
        assert decoded["code"] == {"r": False, "a": False}

    def test_state_minterm_fixes_every_variable(self):
        stg = mutex_element()
        encoding = SymbolicEncoding(stg)
        state = encoding.state_minterm(stg.initial_marking(),
                                       {s: False for s in stg.signals})
        assert encoding.count_states(state) == 1
        assert set(support(state)) == set(encoding.all_variables)

    def test_markings_to_function_counts(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        m0 = stg.initial_marking()
        m1 = stg.net.fire("r+", m0)
        chi = markings_to_function(encoding, [m0, m1])
        assert chi.sat_count(care_vars=encoding.place_variables) == 2

    def test_decode_roundtrip(self):
        stg = mutex_element()
        encoding = SymbolicEncoding(stg)
        marking = Marking({"p_me": 1, "<r1+,g1+>": 1, "<g2-,r2+>": 1})
        values = {"r1": True, "r2": False, "g1": False, "g2": False}
        minterm = encoding.state_minterm(marking, values)
        decoded = encoding.decode_state(minterm.pick_one(encoding.all_variables))
        assert decoded["marking"] == marking
        assert decoded["code"] == values

    def test_count_states_of_false_and_true(self):
        encoding = SymbolicEncoding(handshake())
        assert encoding.count_states(encoding.manager.false) == 0
        total = 2 ** len(encoding.all_variables)
        assert encoding.count_states(encoding.manager.true) == total
