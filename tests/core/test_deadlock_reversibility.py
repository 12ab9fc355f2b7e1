"""Tests for symbolic deadlock detection and reversibility."""

import pytest

from repro.core.deadlock import (
    check_deadlock_freedom,
    check_reversibility,
    deadlock_states,
)
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
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


def setup(stg):
    encoding = SymbolicEncoding(stg)
    image = SymbolicImage(encoding)
    reached, _ = symbolic_traversal(encoding, image=image)
    return encoding, image, reached


class TestDeadlocks:
    @pytest.mark.parametrize("factory", [
        handshake, mutex_element, vme_read_cycle,
        lambda: muller_pipeline(4), lambda: master_read(3),
    ], ids=["handshake", "mutex", "vme", "pipeline4", "master_read3"])
    def test_live_specifications_are_deadlock_free(self, factory):
        stg = factory()
        encoding, image, reached = setup(stg)
        result = check_deadlock_freedom(encoding, reached, image.charfun)
        assert result.deadlock_free
        assert deadlock_states(encoding, reached, image.charfun).is_false()

    def test_one_shot_specification_has_deadlocks(self):
        stg = fake_conflict_d1()   # acyclic: ends after c+
        encoding, image, reached = setup(stg)
        result = check_deadlock_freedom(encoding, reached, image.charfun)
        assert not result.deadlock_free
        assert result.num_deadlocks == 1
        assert result.witness is not None
        # The witness is the final state with all three signals high.
        assert result.witness["code"] == {"a": True, "b": True, "c": True}

    def test_deadlock_count_matches_explicit(self):
        stg = output_disabled_by_input()
        encoding, image, reached = setup(stg)
        symbolic = check_deadlock_freedom(encoding, reached, image.charfun)
        graph = build_reachability_graph(stg.net)
        explicit = [marking for marking in graph.markings
                    if not graph.successors(marking)]
        assert symbolic.num_deadlocks == len(explicit)

    def test_string_rendering(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        assert "deadlock-free" in str(
            check_deadlock_freedom(encoding, reached, image.charfun))


class TestReversibility:
    @pytest.mark.parametrize("factory", [
        handshake, mutex_element, vme_read_cycle, lambda: muller_pipeline(3),
    ], ids=["handshake", "mutex", "vme", "pipeline3"])
    def test_cyclic_specifications_are_reversible(self, factory):
        stg = factory()
        encoding, image, reached = setup(stg)
        result = check_reversibility(encoding, reached, image)
        assert result.reversible

    def test_acyclic_specification_is_not_reversible(self):
        stg = fake_conflict_d1()
        encoding, image, reached = setup(stg)
        result = check_reversibility(encoding, reached, image)
        assert not result.reversible
        # Every non-initial state cannot come back (the net never returns).
        assert result.num_unreturnable == 4

    def test_rendering(self):
        stg = handshake()
        encoding, image, reached = setup(stg)
        assert "reversible" in str(check_reversibility(encoding, reached, image))
