"""Tests for next-state function derivation, gate covers and verification."""

import pytest

from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import symbolic_traversal
from repro.sg import build_state_graph
from repro.stg.generators import (
    csc_resolved_example,
    csc_violation_example,
    handshake,
    master_read,
    muller_pipeline,
    mutex_element,
)
from repro.synthesis import (
    derive_next_state_functions,
    synthesize_complex_gates,
    synthesize_generalized_c_elements,
    verify_implementation,
)
from repro.synthesis.functions import SynthesisError, derive_next_state_function


def setup(stg):
    encoding = SymbolicEncoding(stg)
    image = SymbolicImage(encoding)
    reached, _ = symbolic_traversal(image)
    return encoding, image, reached


class TestNextStateFunctions:
    def test_handshake_acknowledgement_function(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        functions = derive_next_state_functions(encoding, reached)
        assert set(functions) == {"a"}
        function = functions["a"]
        assert function.is_well_defined
        # For the 4-phase handshake the acknowledgement simply follows the
        # request: on-set = {r=1}, off-set = {r=0} (over reachable codes).
        r = encoding.signal("r")
        assert function.on_set == r
        assert function.off_set == ~r

    def test_on_and_off_sets_at_specific_codes(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        function = derive_next_state_functions(
            encoding, reached)["a"]
        r = encoding.manager.var(encoding.signal_variable("r"))
        a = encoding.manager.var(encoding.signal_variable("a"))
        assert (r & ~a) <= function.on_set
        assert (~r & a) <= function.off_set

    def test_unreachable_codes_are_dont_care(self):
        stg = muller_pipeline(2)
        encoding, image, reached = setup(stg)
        functions = derive_next_state_functions(encoding, reached)
        reachable_codes = reached.exist(encoding.place_variables)
        for function in functions.values():
            assert function.dont_care == ~reachable_codes

    def test_input_signal_rejected(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        with pytest.raises(SynthesisError):
            derive_next_state_function(encoding, reached, "r")

    def test_csc_violation_rejected(self):
        stg = csc_violation_example()
        encoding, image, reached = setup(stg)
        with pytest.raises(SynthesisError):
            derive_next_state_functions(encoding, reached)

    def test_csc_violation_tolerated_without_requirement(self):
        stg = csc_violation_example()
        encoding, image, reached = setup(stg)
        functions = derive_next_state_functions(
            encoding, reached, require_csc=False)
        assert not functions["b"].is_well_defined

    def test_no_noninput_signals_rejected(self):
        from repro.stg import STG, SignalKind

        stg = STG("inputs_only")
        stg.add_signal("a", SignalKind.INPUT, initial_value=False)
        stg.connect("a+", "a-")
        stg.connect("a-", "a+", tokens=1)
        encoding, image, reached = setup(stg)
        with pytest.raises(SynthesisError):
            derive_next_state_functions(encoding, reached)


class TestComplexGates:
    @pytest.mark.parametrize("factory", [
        handshake, mutex_element, csc_resolved_example,
        lambda: muller_pipeline(3), lambda: master_read(2),
    ], ids=["handshake", "mutex", "csc_resolved", "pipeline3", "master_read2"])
    def test_gates_cover_on_set_and_avoid_off_set(self, factory):
        stg = factory()
        encoding, image, reached = setup(stg)
        functions = derive_next_state_functions(encoding, reached)
        gates = synthesize_complex_gates(encoding, reached)
        for signal, gate in gates.items():
            function = functions[signal]
            assert function.on_set <= gate.cover_function
            assert gate.cover_function.disjoint(function.off_set)
            assert gate.equation not in ("", "0") or function.on_set.is_false()

    def test_handshake_equation_is_request_buffer(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        gates = synthesize_complex_gates(encoding, reached)
        assert gates["a"].equation == "r"

    def test_muller_pipeline_gates_are_c_elements(self):
        # Stage i of the pipeline is a Muller C-element of its neighbours:
        # c_i = c_{i-1} c_{i+1}' + c_i (c_{i-1} + c_{i+1}')
        stg = muller_pipeline(2)
        encoding, image, reached = setup(stg)
        gates = synthesize_complex_gates(encoding, reached)
        c0 = encoding.signal("c0")
        c1 = encoding.signal("c1")
        c2 = encoding.signal("c2")
        expected_c1 = (c0 & ~c2) | (c1 & (c0 | ~c2))
        reachable_codes = reached.exist(encoding.place_variables)
        # Compare on the reachable codes (off the care set anything goes).
        assert (gates["c1"].cover_function & reachable_codes) == \
            (expected_c1 & reachable_codes)

    def test_gc_elements_cover_excitation_regions(self):
        stg = mutex_element()
        encoding, image, reached = setup(stg)
        functions = derive_next_state_functions(encoding, reached)
        gc = synthesize_generalized_c_elements(encoding, reached)
        for signal, element in gc.items():
            function = functions[signal]
            assert function.excitation_on <= element.set_function
            assert function.excitation_off <= element.reset_function
            assert element.set_function.disjoint(function.off_set)
            assert element.reset_function.disjoint(function.on_set)

    def test_gate_string_rendering(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        gates = synthesize_complex_gates(encoding, reached)
        assert str(gates["a"]) == "a = r"
        gc = synthesize_generalized_c_elements(encoding, reached)
        assert "set =" in str(gc["a"])


class TestVerification:
    @pytest.mark.parametrize("factory", [
        handshake, mutex_element, csc_resolved_example,
        lambda: muller_pipeline(3), lambda: master_read(2),
    ], ids=["handshake", "mutex", "csc_resolved", "pipeline3", "master_read2"])
    def test_derived_gates_verify_against_explicit_graph(self, factory):
        stg = factory()
        encoding, image, reached = setup(stg)
        functions = derive_next_state_functions(encoding, reached)
        gates = synthesize_complex_gates(encoding, reached)
        graph = build_state_graph(stg).graph
        result = verify_implementation(encoding, graph, gates, functions)
        assert result.correct, str(result)

    def test_wrong_gate_is_rejected(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        functions = derive_next_state_functions(encoding, reached)
        gates = synthesize_complex_gates(encoding, reached)
        # Sabotage: invert the acknowledgement gate.
        gates["a"].cover_function = ~gates["a"].cover_function
        graph = build_state_graph(stg).graph
        result = verify_implementation(encoding, graph, gates, functions)
        assert not result.correct
        assert result.simulation_failures
