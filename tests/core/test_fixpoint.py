"""Differential tests of the one symbolic fixpoint routine.

Every strategy -- saturation and frontier (breadth-first) -- must reach
the *same BDD* as the chained one (Figure 5, the oracle) in both
directions from every start the checks use -- the reversibility closure
of the initial state, the Section 5.3 closures of each quiescent-side
CSC conflict over the input transitions, and an unrestricted closure of
the initial state -- over the whole corpus plus seeded draws of the
``random_ring`` / ``random_parallel`` families and two hand-written
non-live specifications.  Seeded starts inside and outside the
reachable set check the ``restrict_to`` contract of saturation.  On the
non-corpus ones both engines must also agree on every check, the
liveness verdicts built on those closures included (the explicit
engine's state graph is the oracle).
"""

import os
import random
import subprocess
import sys

import pytest

import repro

from repro import corpus
from repro.api import ALL, EngineConfig, verify
from repro.core.pipeline import VerificationPipeline
from repro.core.traversal import DIRECTIONS, STRATEGIES, fixpoint
from repro.stg.generators import fake_conflict_d1, random_parallel, random_ring
from repro.stg.parser import parse_g
from tests.core import product_checks

#: Deadlock-free but not reversible: ``s+`` fires once, then the
#: a/b cycle never re-marks ``p0``.
LASSO = """\
.model lasso
.inputs a
.outputs s b
.graph
p0 s+
s+ p_loop
p_loop a+
a+ b+
b+ a-
a- b-
b- p_loop
.marking { p0 }
.initial_values a=0 b=0 s=0
.end
"""


def _random_draws():
    rng = random.Random(20261017)
    draws = []
    for _ in range(12):
        signals, seed = rng.randint(2, 8), rng.randrange(10_000)
        draws.append((f"random_ring_n{signals}_s{seed}",
                      lambda n=signals, s=seed: random_ring(n, s)))
    for _ in range(8):
        rings, seed = rng.randint(1, 4), rng.randrange(10_000)
        draws.append((f"random_parallel_r{rings}_s{seed}",
                      lambda n=rings, s=seed: random_parallel(n, s)))
    return draws


#: Specifications beyond the corpus (whose engine parity
#: tests/corpus/test_cross_engine.py already pins).
EXTRA_SPECS = (_random_draws()
               + [("lasso", lambda: parse_g(LASSO, name="lasso")),
                  ("fake_conflict_d1", fake_conflict_d1)])
SPECS = ([(name, lambda name=name: corpus.load(name))
          for name in corpus.names()] + EXTRA_SPECS)


def closure_starts(pipeline):
    """``(label, start, transitions, restrict_to)`` per closure to compare."""
    encoding, image, reached = pipeline.encoding, pipeline.image, \
        pipeline.reached
    every = encoding.stg.transitions
    initial = encoding.initial_state()
    starts = [("reversibility", initial, every, reached),
              ("unrestricted", initial, every, None)]
    inputs = image.input_transitions()
    for signal in encoding.stg.noninput_signals:
        conflict, _ = product_checks.conflict_sets(encoding, reached,
                                                   pipeline.charfun, signal)
        if conflict.is_false():
            continue
        backward = fixpoint(image, conflict, inputs, "backward", "chained",
                            restrict_to=reached)
        starts.append((f"reducibility:{signal}", conflict, inputs, reached))
        starts.append((f"reducibility-forward:{signal}", backward, inputs,
                       reached))
    return starts


@pytest.mark.parametrize("name, factory", SPECS,
                         ids=[name for name, _ in SPECS])
def test_chained_and_frontier_closures_are_identical(name, factory):
    pipeline = VerificationPipeline(factory())
    for label, start, transitions, restrict_to in closure_starts(pipeline):
        for direction in DIRECTIONS:
            closures = {
                strategy: fixpoint(pipeline.image, start, transitions,
                                   direction, strategy,
                                   restrict_to=restrict_to)
                for strategy in STRATEGIES}
            for strategy, closure in closures.items():
                assert closure == closures["chained"], (
                    f"{name}: {label} {direction} {strategy}")


def random_cube(pipeline, rng):
    """A seeded cube over up to three state variables."""
    manager = pipeline.manager
    cube = manager.true
    for name in rng.sample(pipeline.encoding.all_variables,
                           rng.randint(1, 3)):
        literal = manager.var(name)
        cube = cube & (literal if rng.random() < 0.5 else ~literal)
    return cube


def states_next_to(pipeline, rng, count):
    """Seeded single states outside R: a reachable state with one
    variable flipped (a start the closure must leave R's bound for)."""
    reached, manager = pipeline.reached, pipeline.manager
    variables = pipeline.encoding.all_variables
    starts = []
    for _ in range(count):
        state = (reached & random_cube(pipeline, rng)).pick_one(variables)
        if state is None:
            continue
        flip = rng.choice(variables)
        state[flip] = not state[flip]
        start = manager.cube(state)
        if (start & reached).is_false():
            starts.append(start)
    return starts


@pytest.mark.parametrize("name, factory", SPECS,
                         ids=[name for name, _ in SPECS])
def test_saturation_matches_chained_from_seeded_starts(name, factory):
    pipeline = VerificationPipeline(factory())
    image, reached = pipeline.image, pipeline.reached
    rng = random.Random(name)
    inside = [reached & random_cube(pipeline, rng) for _ in range(3)]
    outside = states_next_to(pipeline, rng, 2)
    for transitions in (pipeline.stg.transitions, image.input_transitions()):
        for direction in DIRECTIONS:
            for start in inside:
                for bound in (reached, None):
                    assert (fixpoint(image, start, transitions, direction,
                                     "saturation", restrict_to=bound)
                            == fixpoint(image, start, transitions, direction,
                                        "chained", restrict_to=bound)), (
                        f"{name}: {direction} from inside R")
            # Outside R the bound is applied to the unbounded closure.
            for start in outside:
                unbounded = fixpoint(image, start, transitions, direction,
                                     "chained")
                assert (fixpoint(image, start, transitions, direction,
                                 "saturation", restrict_to=reached)
                        == start | (unbounded & reached)), (
                    f"{name}: {direction} from outside R")


def test_the_seeded_starts_leave_the_reachable_set():
    outside = [start
               for name, factory in SPECS
               for start in states_next_to(
                   VerificationPipeline(factory()), random.Random(name), 2)]
    assert len(outside) >= len(SPECS)


#: The largest registered family scales with every check, in a fresh
#: interpreter: saturation recurses once per level, and 201 variables
#: must fit the default recursion limit.
DEEP_SCRIPT = """\
import sys
from repro.api import ALL, verify
from repro.stg.generators import master_read, muller_pipeline

assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
for stg in (muller_pipeline(40), master_read(11)):
    report = verify(stg, checks=ALL)
    assert report.deadlock_free and report.reversible, stg.name
"""


def test_largest_scales_fit_the_default_recursion_limit():
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=source_root)
    proc = subprocess.run([sys.executable, "-c", DEEP_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_the_draws_reach_reducibility_closures():
    # The reducibility starts only exist with CSC conflicts; make sure
    # the selection exercises them rather than vacuously passing.
    labels = [label
              for _, factory in SPECS
              for label, *_ in closure_starts(VerificationPipeline(factory()))]
    assert sum(label.startswith("reducibility:") for label in labels) >= 10


#: Report fields both engines fill, compared on consistent specs.
FIELDS = ("num_states", "consistent", "output_persistent", "fake_free",
          "csc", "usc", "deterministic", "commutative",
          "complementary_free", "deadlock_free", "reversible")


@pytest.mark.parametrize("name, factory", EXTRA_SPECS,
                         ids=[name for name, _ in EXTRA_SPECS])
def test_engines_agree_on_every_check(name, factory):
    symbolic = verify(factory(), EngineConfig(), checks=ALL)
    explicit = verify(factory(), EngineConfig(engine="explicit"), checks=ALL)
    if not symbolic.consistent:
        # The engines' state spaces differ by construction: the symbolic
        # traversal prunes states without a consistent code.
        return
    for field in FIELDS:
        assert getattr(symbolic, field) == getattr(explicit, field), field


@pytest.mark.parametrize("name, live", [("lasso", (True, False)),
                                        ("fake_conflict_d1", (False, False))])
def test_non_live_specifications_are_caught_by_both_engines(name, live):
    factory = dict(EXTRA_SPECS)[name]
    for engine in ("symbolic", "explicit"):
        report = verify(factory(), EngineConfig(engine=engine),
                        checks=["liveness"])
        assert (report.deadlock_free, report.reversible) == live, engine
