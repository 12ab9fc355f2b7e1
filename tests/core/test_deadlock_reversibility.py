"""Tests for symbolic deadlock detection and reversibility."""

import pytest

import repro.core.pipeline
from repro.api import EngineConfig, verify
from repro.core.deadlock import (
    check_deadlock_freedom,
    check_reversibility,
    deadlock_states,
)
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.pipeline import VerificationPipeline
from repro.core.traversal import symbolic_traversal
from repro.petri import build_reachability_graph
from repro.stg.generators import (
    fake_conflict_d1,
    handshake,
    master_read,
    muller_pipeline,
    mutex_element,
    output_disabled_by_input,
    vme_read_cycle,
)
from repro.stg.parser import parse_g
from tests.core.test_check_parity import nondeterministic_example

#: ``a+`` fires once, then ``b`` toggles forever: deadlock-free, but
#: ``p0`` is never marked again.
TRANSIENT = """\
.model transient
.inputs a
.outputs b
.graph
p0 a+
a+ p1
p1 b+
b+ b-
b- p1
.marking { %s }
.initial_values a=0 b=0
.end
"""


def setup(stg):
    encoding = SymbolicEncoding(stg)
    image = SymbolicImage(encoding)
    reached, _ = symbolic_traversal(image)
    return encoding, image, reached


class TestDeadlocks:
    @pytest.mark.parametrize("factory", [
        handshake, mutex_element, vme_read_cycle,
        lambda: muller_pipeline(4), lambda: master_read(3),
    ], ids=["handshake", "mutex", "vme", "pipeline4", "master_read3"])
    def test_live_specifications_are_deadlock_free(self, factory):
        stg = factory()
        encoding, image, reached = setup(stg)
        result = check_deadlock_freedom(encoding, reached)
        assert result.deadlock_free
        assert deadlock_states(encoding, reached).is_false()

    def test_one_shot_specification_has_deadlocks(self):
        stg = fake_conflict_d1()   # acyclic: ends after c+
        encoding, image, reached = setup(stg)
        result = check_deadlock_freedom(encoding, reached)
        assert not result.deadlock_free
        assert result.num_deadlocks == 1
        assert result.witness is not None
        # The witness is the final state with all three signals high.
        assert result.witness["code"] == {"a": True, "b": True, "c": True}

    def test_deadlock_count_matches_explicit(self):
        stg = output_disabled_by_input()
        encoding, image, reached = setup(stg)
        symbolic = check_deadlock_freedom(encoding, reached)
        graph = build_reachability_graph(stg.net)
        explicit = [marking for marking in graph.markings
                    if not graph.successors(marking)]
        assert symbolic.num_deadlocks == len(explicit)

    def test_string_rendering(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        assert "deadlock-free" in str(
            check_deadlock_freedom(encoding, reached))


class TestReversibility:
    @pytest.mark.parametrize("factory", [
        handshake, mutex_element, vme_read_cycle, lambda: muller_pipeline(3),
    ], ids=["handshake", "mutex", "vme", "pipeline3"])
    def test_cyclic_specifications_are_reversible(self, factory):
        stg = factory()
        encoding, image, reached = setup(stg)
        result = check_reversibility(image, reached)
        assert result.reversible

    def test_acyclic_specification_is_not_reversible(self):
        stg = fake_conflict_d1()
        encoding, image, reached = setup(stg)
        result = check_reversibility(image, reached)
        assert not result.reversible
        # Every non-initial state cannot come back (the net never returns).
        assert result.num_unreturnable == 4

    def test_rendering(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        assert "reversible" in str(check_reversibility(image, reached))


class TestLivenessThroughThePipeline:
    """The ``liveness`` check, run through the facade on both engines.

    The pipeline decides deadlock freedom from reversibility when it can,
    so these specs cover each branch of that order: a deadlock with
    stranded states, stranded states without a deadlock, and a
    reversible spec whose initial state enables nothing.
    """

    #: name -> (factory, states, deadlock states, stranded states)
    SPECS = {
        "deadlocks_and_irreversible": (nondeterministic_example, 5, 2, 4),
        "irreversible_deadlock_free": (
            lambda: parse_g(TRANSIENT % "p0", name="transient"), 3, 0, 2),
        "reversible_initial_deadlock": (
            lambda: parse_g(TRANSIENT % "", name="transient"), 1, 1, 0),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_engines_agree(self, name):
        factory, states, deadlocks, stranded = self.SPECS[name]
        reports = {engine: verify(factory(), EngineConfig(engine=engine),
                                  checks=["liveness"])
                   for engine in ("symbolic", "explicit")}
        symbolic, explicit = reports["symbolic"], reports["explicit"]
        assert symbolic.num_states == explicit.num_states == states
        assert symbolic.deadlock_free is explicit.deadlock_free \
            is (deadlocks == 0)
        assert symbolic.reversible is explicit.reversible is (stranded == 0)
        assert symbolic.verdicts == explicit.verdicts
        encoding, image, reached = setup(factory())
        direct = check_deadlock_freedom(encoding, reached)
        assert direct.num_deadlocks == deadlocks
        assert check_reversibility(image, reached).num_unreturnable == stranded

    def test_reversible_spec_skips_the_deadlock_product(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("deadlock_states built for a reversible spec")

        monkeypatch.setattr(repro.core.pipeline, "check_deadlock_freedom",
                            fail)
        # The pipeline is a live marked graph, decided from its structure;
        # the mutex element is not one, so the closure decides it.
        for stg in (muller_pipeline(5), mutex_element()):
            pipeline = VerificationPipeline(stg)
            assert pipeline.deadlock_freedom().deadlock_free
            assert pipeline.reversibility().reversible
