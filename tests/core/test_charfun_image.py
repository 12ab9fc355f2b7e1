"""Tests for characteristic functions and the symbolic transition function.

The symbolic firing is validated against the explicit Petri-net/STG firing
rule state by state on several examples, which is the strongest functional
guarantee the rest of the engine builds upon.  On sets of states it is
validated against the paper's four-step pipeline
``((M_E(t) . NPM(t))_NSM(t)) . ASM(t)``, built literally from the
encoding's ``E(t)`` and the test-side ``NPM``/``NSM``/``ASM`` cubes
(:mod:`tests.core.markings`), which the one-pass kernel replaces.
"""

import random

import pytest

from repro import corpus
from repro.bdd.analysis import support
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.pipeline import VerificationPipeline
from repro.sg import build_state_graph
from repro.stg.generators import (
    csc_violation_example,
    fake_conflict_d1,
    handshake,
    irreducible_csc_example,
    master_read,
    muller_pipeline,
    mutex_element,
    random_parallel,
    random_ring,
)
from repro.stg.parser import parse_g

from tests.core.markings import (
    all_successors_marked,
    marking_minterm,
    no_predecessor_marked,
    no_successor_marked,
)

#: ``p_en`` is a self-loop place of both ``b`` transitions (a read arc):
#: firing keeps it marked, the case no corpus entry has.
READ_ARC = """\
.model read_arc
.inputs a
.outputs b
.graph
p_en b+ b-
b+ p_en
b- p_en
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> p_en }
.initial_values a=0 b=0
.end
"""


def read_arc():
    return parse_g(READ_ARC, name="read_arc")


@pytest.fixture
def mutex_setup():
    stg = mutex_element()
    encoding = SymbolicEncoding(stg)
    return stg, encoding, SymbolicImage(encoding)


class TestCharacteristicFunctions:
    def test_enabled_cube(self, mutex_setup):
        stg, encoding, _ = mutex_setup
        enabled = encoding.enabled("g1+")
        # g1+ needs its request place and the shared mutual exclusion place.
        assert set(support(enabled)) == {
            encoding.place_variable("<r1+,g1+>"),
            encoding.place_variable("p_me"),
        }

    def test_enabled_matches_markings(self, mutex_setup):
        stg, encoding, _ = mutex_setup
        graph = build_state_graph(stg).graph
        for state in graph.states:
            minterm = marking_minterm(encoding, state.marking)
            for transition in stg.transitions:
                symbolically_enabled = not (
                    minterm & encoding.enabled(transition)).is_false()
                assert symbolically_enabled == stg.net.is_enabled(
                    transition, state.marking)

    def test_npm_nsm_asm_supports(self, mutex_setup):
        stg, encoding, _ = mutex_setup
        for transition in stg.transitions:
            preset = {encoding.place_variable(p)
                      for p in stg.net.preset_of_transition(transition)}
            postset = {encoding.place_variable(p)
                       for p in stg.net.postset_of_transition(transition)}
            assert set(support(no_predecessor_marked(
                encoding, transition))) == preset
            assert set(support(all_successors_marked(
                encoding, transition))) == postset
            assert set(support(no_successor_marked(
                encoding, transition))) == postset

    def test_signal_enabled_is_union(self, mutex_setup):
        stg, encoding, _ = mutex_setup
        union = encoding.enabled("r1+") | encoding.enabled("r1-")
        assert encoding.signal_enabled("r1") == union

    def test_generic_enabled_selects_polarity(self):
        stg = csc_violation_example()
        encoding = SymbolicEncoding(stg)
        generic = encoding.generic_enabled("a", "+")
        assert generic == encoding.enabled("a+") | encoding.enabled("a+/2")


@pytest.mark.parametrize("factory", [
    handshake,
    mutex_element,
    csc_violation_example,
    irreducible_csc_example,
    fake_conflict_d1,
    lambda: muller_pipeline(3),
    lambda: master_read(2),
    read_arc,
], ids=["handshake", "mutex", "csc_viol", "irreducible", "fake_d1",
        "pipeline3", "master_read2", "read_arc"])
class TestImageAgainstExplicitFiring:
    def test_forward_image_matches_explicit_firing(self, factory):
        stg = factory()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        graph = build_state_graph(stg).graph
        for state in graph.states:
            source = encoding.state_minterm(
                state.marking,
                {s: state.value_of(s) for s in stg.signals})
            for transition, successor in graph.successors(state):
                fired = image.fire(source, transition)
                expected = encoding.state_minterm(
                    successor.marking,
                    {s: successor.value_of(s) for s in stg.signals})
                assert fired == expected, (stg.name, transition)

    def test_forward_image_empty_for_disabled_transitions(self, factory):
        stg = factory()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        graph = build_state_graph(stg).graph
        for state in graph.states[:10]:
            source = encoding.state_minterm(
                state.marking,
                {s: state.value_of(s) for s in stg.signals})
            enabled = set(graph.enabled_transitions(state))
            for transition in stg.transitions:
                if transition in enabled:
                    continue
                assert image.fire(source, transition).is_false()

    def test_backward_image_inverts_forward(self, factory):
        stg = factory()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        graph = build_state_graph(stg).graph
        for state in graph.states:
            source = encoding.state_minterm(
                state.marking,
                {s: state.value_of(s) for s in stg.signals})
            for transition, successor in graph.successors(state):
                target = encoding.state_minterm(
                    successor.marking,
                    {s: successor.value_of(s) for s in stg.signals})
                assert image.fire_backward(target, transition) == source


class TestImageSets:
    def test_image_over_all_transitions(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        initial = encoding.initial_state()
        successors = image.image(initial)
        assert encoding.count_states(successors) == 1  # only r+ enabled

    def test_input_transitions_listed(self):
        stg = mutex_element()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        assert set(image.input_transitions()) == {
            "r1+", "r1-", "r2+", "r2-"}

    def test_image_of_empty_set_is_empty(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        assert image.image(encoding.manager.false).is_false()

    def test_preimage_of_initial_state(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        initial = encoding.initial_state()
        predecessors = encoding.manager.false
        for transition in stg.transitions:
            predecessors |= image.fire_backward(initial, transition)
        # Only a- leads back to the initial state.
        assert encoding.count_states(predecessors) == 1
        assert image.fire(predecessors, "a-") == initial

    def test_backward_firing_needs_the_postset_and_the_new_value(self):
        stg = handshake()
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        manager, place = encoding.manager, encoding.place_variable
        # No state without a marked postset place of r+ has an r+
        # predecessor ...
        empty_post = manager.cube(
            {place(p): False for p in stg.net.postset_of_transition("r+")})
        assert image.fire_backward(empty_post, "r+").is_false()
        # ... nor does one where r still has its old value.
        assert image.fire_backward(
            ~manager.var(encoding.signal_variable("r")), "r+").is_false()


# ----------------------------------------------------------------------
# The paper's pipeline as the oracle of the one-pass kernel
# ----------------------------------------------------------------------
def cube_cofactor(states, cube):
    """The cube cofactor ``states_cube``: ``exists support(cube). states & cube``."""
    return (states & cube).exist(support(cube))


def paper_fire_net(encoding, states, transition):
    """``delta_N``: ``((M_E(t) . NPM(t))_NSM(t)) . ASM(t)``."""
    result = (cube_cofactor(states, encoding.enabled(transition))
              & no_predecessor_marked(encoding, transition))
    return (cube_cofactor(result, no_successor_marked(encoding, transition))
            & all_successors_marked(encoding, transition))


def paper_fire_net_backward(encoding, states, transition):
    """The inverse of ``delta_N``: the pipeline with pre and post mirrored."""
    result = (cube_cofactor(states, all_successors_marked(encoding,
                                                          transition))
              & no_successor_marked(encoding, transition))
    return (cube_cofactor(result, no_predecessor_marked(encoding,
                                                        transition))
            & encoding.enabled(transition))


def signal_literals(encoding, transition):
    """The fired signal's ``(old, new)`` literals."""
    label = encoding.stg.label_of(transition)
    variable = encoding.signal_variable(label.signal)
    positive = encoding.manager.var(variable)
    negative = ~positive
    if label.target_value:
        return negative, positive
    return positive, negative


def paper_fire(encoding, states, transition):
    """``delta_D``: ``delta_N`` then cofactor by old, conjoin new value."""
    old, new = signal_literals(encoding, transition)
    return cube_cofactor(paper_fire_net(encoding, states, transition),
                         old) & new


def paper_fire_backward(encoding, states, transition):
    """The inverse of ``delta_D``."""
    old, new = signal_literals(encoding, transition)
    return cube_cofactor(paper_fire_net_backward(encoding, states, transition),
                         new) & old


def random_states(encoding, rng, cubes=3):
    """A seeded union of random cubes over the encoding's variables."""
    manager = encoding.manager
    variables = encoding.all_variables
    result = manager.false
    for _ in range(cubes):
        chosen = rng.sample(variables, min(len(variables), rng.randint(1, 4)))
        result = result | manager.cube(
            {name: rng.random() < 0.5 for name in chosen})
    return result


def _kernel_specs():
    rng = random.Random(20261017)
    specs = [(name, lambda name=name: corpus.load(name))
             for name in corpus.names()] + [("read_arc", read_arc)]
    for _ in range(6):
        signals, seed = rng.randint(2, 8), rng.randrange(10_000)
        specs.append((f"random_ring_n{signals}_s{seed}",
                      lambda n=signals, s=seed: random_ring(n, s)))
    for _ in range(4):
        rings, seed = rng.randint(1, 4), rng.randrange(10_000)
        specs.append((f"random_parallel_r{rings}_s{seed}",
                      lambda n=rings, s=seed: random_parallel(n, s)))
    return specs


KERNEL_SPECS = _kernel_specs()


@pytest.mark.parametrize("name, factory", KERNEL_SPECS,
                         ids=[name for name, _ in KERNEL_SPECS])
def test_firings_equal_the_paper_pipeline(name, factory):
    """Every firing, with and without ``drop``, over the reached set and
    seeded subsets and supersets of it, equals the four-step pipeline."""
    pipeline = VerificationPipeline(factory())
    encoding, image, reached = (pipeline.encoding, pipeline.image,
                                pipeline.reached)
    rng = random.Random(name)
    state_sets = [reached,
                  reached - random_states(encoding, rng),
                  reached | random_states(encoding, rng)]
    firings = ((image.fire, paper_fire),
               (image.fire_backward, paper_fire_backward))
    for transition in encoding.stg.transitions:
        for states in state_sets:
            drop = random_states(encoding, rng) | (states & random_states(
                encoding, rng))
            for kernel, oracle in firings:
                expected = oracle(encoding, states, transition)
                assert kernel(states, transition) == expected, transition
                assert kernel(states, transition, drop) == (
                    expected - drop), transition
