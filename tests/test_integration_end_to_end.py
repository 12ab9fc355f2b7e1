"""End-to-end integration tests: .g file -> check -> synthesis -> verification.

These tests exercise the complete tool flow on specification files stored
in ``tests/data`` (written in the classical ASTG format, including one
with explicit choice places and one deliberately broken file), i.e. the
way an external user would drive the library.

The files are checked in but owned by the benchmark corpus
(:mod:`repro.corpus`): :func:`data_file` materialises any missing file
from the registry, so deleting ``tests/data`` cannot break the suite, and
``tests/corpus`` asserts the checked-in copies stay in sync.
"""

import os

import pytest

from repro import corpus
from repro.api import EngineConfig, verify
from repro.cli import main as cli_main
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import symbolic_traversal
from repro.report import ImplementabilityClass
from repro.sg import build_state_graph
from repro.stg import read_g_file, to_g_string, parse_g
from repro.synthesis import (
    derive_next_state_functions,
    synthesize_complex_gates,
    verify_implementation,
)

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
EXPLICIT = EngineConfig(engine="explicit")


def data_file(name: str) -> str:
    return corpus.ensure_g_file(os.path.splitext(name)[0], DATA_DIR)


class TestSendControllerFlow:
    """sbuf_send_ctl.g: a clean, gate-implementable controller."""

    def test_parse_and_interface(self):
        stg = read_g_file(data_file("sbuf_send_ctl.g"))
        assert sorted(stg.inputs) == ["done", "req"]
        assert sorted(stg.outputs) == ["ack", "latch"]
        assert stg.has_complete_initial_values()

    def test_full_check_both_engines(self):
        stg = read_g_file(data_file("sbuf_send_ctl.g"))
        symbolic = verify(stg)
        explicit = verify(stg, EXPLICIT)
        assert symbolic.classification is ImplementabilityClass.GATE
        assert explicit.classification is ImplementabilityClass.GATE
        assert symbolic.num_states == explicit.num_states == 8

    def test_synthesis_and_verification(self):
        stg = read_g_file(data_file("sbuf_send_ctl.g"))
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        reached, _ = symbolic_traversal(encoding, image=image)
        functions = derive_next_state_functions(encoding, reached, image.charfun)
        gates = synthesize_complex_gates(encoding, reached, image.charfun)
        graph = build_state_graph(stg).graph
        assert verify_implementation(encoding, graph, gates, functions).correct

    def test_roundtrip_through_writer(self):
        stg = read_g_file(data_file("sbuf_send_ctl.g"))
        recovered = parse_g(to_g_string(stg))
        assert build_state_graph(recovered).graph.num_states == 8

    def test_cli_on_file(self, capsys):
        assert cli_main([data_file("sbuf_send_ctl.g")]) == 0
        assert "gate-implementable" in capsys.readouterr().out


class TestChoiceControllerFlow:
    """choice_controller.g: environment choice, repeated codes but CSC holds."""

    def test_check(self):
        stg = read_g_file(data_file("choice_controller.g"))
        report = verify(stg)
        assert report.consistent and report.output_persistent
        assert report.csc is True
        assert report.usc is False       # two branches share the code 001
        assert report.classification is ImplementabilityClass.GATE

    def test_cross_validation(self):
        stg = read_g_file(data_file("choice_controller.g"))
        symbolic = verify(stg)
        explicit = verify(stg, EXPLICIT)
        assert symbolic.num_states == explicit.num_states
        assert symbolic.usc == explicit.usc
        assert symbolic.csc == explicit.csc

    def test_grant_logic_is_request_or(self):
        stg = read_g_file(data_file("choice_controller.g"))
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        reached, _ = symbolic_traversal(encoding, image=image)
        gates = synthesize_complex_gates(encoding, reached, image.charfun)
        reachable_codes = reached.exist(encoding.place_variables)
        expected = encoding.signal("r1") | encoding.signal("r2")
        assert (gates["g"].cover_function & reachable_codes) == \
            (expected & reachable_codes)


class TestBrokenSpecificationFlow:
    """broken_double_rise.g: the tool flow must reject it cleanly."""

    def test_check_reports_inconsistency(self):
        stg = read_g_file(data_file("broken_double_rise.g"))
        report = verify(stg)
        assert report.consistent is False
        assert report.classification is ImplementabilityClass.NOT_IMPLEMENTABLE

    def test_cli_exit_code(self, capsys):
        assert cli_main([data_file("broken_double_rise.g")]) == 1
        assert "not SI-implementable" in capsys.readouterr().out

    def test_synthesis_refuses(self):
        from repro.synthesis.functions import SynthesisError

        stg = read_g_file(data_file("broken_double_rise.g"))
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        reached, _ = symbolic_traversal(encoding, image=image)
        with pytest.raises(SynthesisError):
            derive_next_state_functions(encoding, reached, image.charfun)
