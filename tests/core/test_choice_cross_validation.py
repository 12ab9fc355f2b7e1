"""Property-based cross-validation on random STGs *with choice*.

The randomised tests in ``test_properties_symbolic.py`` cover marked
graphs (pure concurrency).  Here random free-choice controllers are
generated: one choice place selects between several input bursts, each
burst optionally followed by an output pulse.  These specifications
exercise conflicts, repeated codes and (sometimes) CSC violations, and
the explicit and symbolic engines must agree on every verdict.  So must
they on mutual exclusion elements whose grants conflict at an
arbitration place and at a second shared place.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import EngineConfig, verify
from repro.core.conflicts import check_conflict_pairs
from repro.core.csc import check_csc as symbolic_csc
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.state_checks import check_state_cubes
from repro.core.traversal import symbolic_traversal
from repro.sg import build_state_graph
from repro.sg.csc import check_csc as explicit_csc
from repro.sg.fake_conflicts import classify_conflicts as explicit_conflicts
from repro.sg.persistency import check_signal_persistency as explicit_persistency
from repro.stg import STG, SignalKind
from repro.stg.generators import mutex_element


@st.composite
def choice_controllers(draw):
    """A free-choice place selecting between 2-3 branches.

    Branch ``i`` raises and lowers its own input ``r<i>``; with probability
    ~1/2 the shared output ``g`` pulses between the request and its
    release.  Reusing the same output in several branches (with different
    occurrence indices) keeps the specification consistent while freely
    producing repeated codes and occasionally interesting CSC situations.
    """
    num_branches = draw(st.integers(min_value=2, max_value=3))
    with_output = [draw(st.booleans()) for _ in range(num_branches)]
    if not any(with_output):
        with_output[0] = True  # keep at least one non-input signal
    stg = STG("random_choice")
    stg.add_signal("g", SignalKind.OUTPUT, initial_value=False)
    for index in range(num_branches):
        stg.add_signal(f"r{index}", SignalKind.INPUT, initial_value=False)
    choice = stg.add_place("p_choice", tokens=1)
    output_occurrence = 0
    for index in range(num_branches):
        request = f"r{index}"
        entry = stg.ensure_transition(f"{request}+")
        stg.add_arc(choice, entry)
        if with_output[index]:
            output_occurrence += 1
            suffix = "" if output_occurrence == 1 else f"/{output_occurrence}"
            stg.connect(f"{request}+", f"g+{suffix}")
            stg.connect(f"g+{suffix}", f"{request}-")
            stg.connect(f"{request}-", f"g-{suffix}")
            exit_transition = stg.ensure_transition(f"g-{suffix}")
        else:
            stg.connect(f"{request}+", f"{request}-")
            exit_transition = stg.ensure_transition(f"{request}-")
        stg.add_arc(exit_transition, choice)
    return stg


def symbolic_setup(stg):
    encoding = SymbolicEncoding(stg)
    image = SymbolicImage(encoding)
    reached, stats = symbolic_traversal(encoding, image=image)
    return encoding, image, reached, stats


def booleans(result):
    """Each classified pair with the booleans its verdict derives from."""
    return {(c.first, c.second): (c.observed, c.first_disables_second_signal,
                                  c.second_disables_first_signal)
            for c in result.classifications}


class TestChoiceControllersCrossValidation:
    @settings(max_examples=25, deadline=None)
    @given(stg=choice_controllers())
    def test_state_counts_and_consistency_agree(self, stg):
        explicit = build_state_graph(stg)
        encoding, image, reached, stats = symbolic_setup(stg)
        assert explicit.consistent
        assert check_state_cubes(encoding, reached).consistency.consistent
        assert stats.num_states == explicit.graph.num_states

    @settings(max_examples=25, deadline=None)
    @given(stg=choice_controllers())
    def test_persistency_verdicts_agree(self, stg):
        explicit_graph = build_state_graph(stg).graph
        encoding, image, reached, _ = symbolic_setup(stg)
        explicit_result = explicit_persistency(explicit_graph, stg)
        symbolic_result = check_conflict_pairs(
            encoding, reached, image).signal_persistency
        assert explicit_result.persistent == symbolic_result.persistent

    @settings(max_examples=25, deadline=None)
    @given(stg=choice_controllers())
    def test_csc_verdicts_agree(self, stg):
        explicit_graph = build_state_graph(stg).graph
        encoding, image, reached, stats = symbolic_setup(stg)
        assert explicit_csc(explicit_graph, stg).csc == \
            symbolic_csc(encoding, reached, stats.num_states,
                         image.charfun).csc

    @settings(max_examples=20, deadline=None)
    @given(stg=choice_controllers())
    def test_fake_conflict_classification_agrees(self, stg):
        explicit_graph = build_state_graph(stg).graph
        explicit_result = explicit_conflicts(explicit_graph, stg)
        encoding, image, reached, _ = symbolic_setup(stg)
        symbolic_result = check_conflict_pairs(
            encoding, reached, image).conflicts
        assert explicit_result.fake_free(stg) == symbolic_result.fake_free(stg)
        assert booleans(explicit_result) == booleans(symbolic_result)


def mutex_with_a_second_shared_place(users):
    """``mutex_element(users)`` whose grants also share the marked place
    ``p_me2``: every two grants conflict at ``p_me`` and at ``p_me2``."""
    stg = mutex_element(users)
    stg.add_place("p_me2", tokens=1)
    for index in range(1, users + 1):
        stg.add_arc("p_me2", f"g{index}+")
        stg.add_arc(f"g{index}-", "p_me2")
    return stg


@pytest.mark.parametrize("users", range(2, 7))
def test_arbitration_is_decided_per_pair_on_both_engines(users):
    """A grant disabling another across ``p_me`` is arbitration, even
    though the two grants share ``p_me2`` as well (Definition 3.2's
    footnote, per pair on both engines)."""
    stg = mutex_with_a_second_shared_place(users)
    verdicts = {}
    for engine in ("symbolic", "explicit"):
        config = EngineConfig(engine=engine, arbitration_places=("p_me",))
        report = verify(stg, config, checks=["persistency"])
        verdict, = [verdict for verdict in report.verdicts
                    if verdict.name == "signal persistency"]
        verdicts[engine] = (verdict.holds, verdict.details)
    assert verdicts["symbolic"] == verdicts["explicit"] == (True, [])
