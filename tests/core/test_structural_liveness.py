"""Liveness decided from structure: live marked graphs skip the closure.

:meth:`repro.core.pipeline.VerificationPipeline.reversibility` answers
"reversible" without the backward closure when
:func:`repro.petri.structure.is_live_reversible_marked_graph` holds and
the consistency and safeness checks pass.  These tests check that
answer against the closure (and the explicit engine) on the corpus and
the families, show that each guard sends its counterexample to the
closure, and sweep seeded re-marking mutants for an unsound shortcut.
"""

import random

import pytest

import repro.core.pipeline
from repro import corpus
from repro.api import EngineConfig, verify
from repro.core.deadlock import check_deadlock_freedom, check_reversibility
from repro.core.pipeline import VerificationPipeline
from repro.petri.structure import is_live_reversible_marked_graph
from repro.stg.generators import muller_pipeline
from repro.stg.parser import parse_g
from tests.core.test_symbolic_checks import TWO_TOKENS
from tests.petri.builders import is_marked_graph

FAMILY_SCALES = (
    ("muller_pipeline", range(2, 9)),
    ("master_read", range(2, 6)),
    ("parallel_handshakes", range(1, 6)),
    ("mutex", range(2, 5)),
    ("random_ring", range(1, 41)),
    ("random_parallel", range(1, 41)),
)

SPECS = corpus.names() + [f"{family}@{scale}"
                          for family, scales in FAMILY_SCALES
                          for scale in scales]

#: The specs the shortcut leaves to the closure: the corpus entries and
#: family instances that are not marked graphs, and the two
#: inconsistent marked graphs.
NOT_MARKED_GRAPHS = ("choice_controller", "mutex_element", "mutex3",
                     "output_disabled_by_input", "irreducible_csc",
                     "mutex@2", "mutex@3", "mutex@4")
INCONSISTENT = ("broken_double_rise", "inconsistent")


def load(name):
    """``(stg, arbitration_places)`` of a corpus entry or ``family@scale``."""
    if "@" in name:
        family, _, scale = name.partition("@")
        return corpus.family(family).instantiate(int(scale))
    return corpus.load(name), list(corpus.entry(name).arbitration_places)


def decided_by_structure(pipeline):
    """The shortcut's condition, guards included."""
    return (is_live_reversible_marked_graph(pipeline.stg.net)
            and pipeline.consistency().consistent
            and pipeline.safeness().safe)


def closure_verdicts(stg):
    """``(reversible, deadlock_free)`` straight from the symbolic checks."""
    pipeline = VerificationPipeline(stg)
    encoding, reached = pipeline.encoding, pipeline.reached
    return (check_reversibility(pipeline.image, reached).reversible,
            check_deadlock_freedom(encoding, reached).deadlock_free)


@pytest.fixture
def closure_calls(monkeypatch):
    """Record every reversibility closure the pipeline runs."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[0].encoding.stg.name)
        return check_reversibility(*args, **kwargs)

    monkeypatch.setattr(repro.core.pipeline, "check_reversibility",
                        recording)
    return calls


# ----------------------------------------------------------------------
# (a) The corpus and the families
# ----------------------------------------------------------------------
def test_the_structure_decides_every_consistent_marked_graph():
    fallback = [name for name in SPECS
                if not decided_by_structure(VerificationPipeline(load(name)[0]))]
    assert sorted(fallback) == sorted(NOT_MARKED_GRAPHS + INCONSISTENT)
    for name in INCONSISTENT:
        stg = load(name)[0]
        assert is_live_reversible_marked_graph(stg.net)
        assert not VerificationPipeline(stg).consistency().consistent


@pytest.mark.parametrize("name", SPECS)
def test_structural_decision_agrees_with_the_closure(name):
    stg = load(name)[0]
    if decided_by_structure(VerificationPipeline(stg)):
        assert closure_verdicts(stg) == (True, True)


@pytest.mark.parametrize("name", [name for name in SPECS
                                  if name not in INCONSISTENT])
def test_liveness_verdicts_match_the_explicit_engine(name):
    # On an inconsistent spec the engines' state spaces differ by
    # construction, so their reversibility verdicts may too.
    stg, arbitration = load(name)
    reports = [verify(stg, EngineConfig(engine=engine,
                                        arbitration_places=tuple(arbitration)),
                      checks=["liveness"])
               for engine in ("symbolic", "explicit")]
    symbolic, explicit = reports
    assert symbolic.deadlock_free is explicit.deadlock_free
    assert symbolic.reversible is explicit.reversible
    assert symbolic.verdicts == explicit.verdicts


# ----------------------------------------------------------------------
# (b) One fixture per guard
# ----------------------------------------------------------------------
#: Ring ``a`` holds a token, ring ``b`` none: not live.
UNMARKED_CIRCUIT = """\
.model unmarked_circuit
.inputs a
.outputs b
.graph
p0 a+
a+ p1
p1 a-
a- p0
q0 b+
b+ q1
q1 b-
b- q0
.marking { p0 }
.initial_values a=0 b=0
.end
"""

#: The circuit through ``r`` carries two tokens (``p0`` and ``r``), so
#: ``a+`` would put a second one on ``r``: consistent but unsafe.
TWO_MARKED_ON_ONE_CIRCUIT = """\
.model two_marked_on_one_circuit
.inputs a
.outputs b
.graph
p0 a+
a+ p1 r
p1 b+
b+ p2
p2 a-
r a-
a- p3
p3 b-
b- p0
.marking { p0 r }
.initial_values a=0 b=0
.end
"""

#: ``a+`` fires once, from ``p0`` into ``q``, while ring ``b`` runs on:
#: neither place lies on a circuit, and no state after ``a+`` returns.
PLACE_ON_NO_CIRCUIT = """\
.model place_on_no_circuit
.inputs a
.outputs b
.graph
p0 a+
a+ q
r0 b+
b+ r1
r1 b-
b- r0
.marking { p0 r0 }
.initial_values a=0 b=0
.end
"""

#: name -> (spec, failing guard, (reversible, deadlock_free) as the
#: closure decides it).
GUARD_FIXTURES = {
    "unmarked_circuit": (UNMARKED_CIRCUIT, "structure", (True, True)),
    "two_marked_on_one_circuit": (TWO_MARKED_ON_ONE_CIRCUIT, "safeness",
                                  (True, True)),
    "place_on_no_circuit": (PLACE_ON_NO_CIRCUIT, "structure",
                            (False, True)),
    "inconsistent": ("inconsistent", "consistency", (False, True)),
    "broken_double_rise": ("broken_double_rise", "consistency",
                           (False, True)),
    "two_tokens": (TWO_TOKENS, "safeness", (True, True)),
}


def fixture_stg(source):
    if source in corpus.names():
        return corpus.load(source)
    return parse_g(source)


@pytest.mark.parametrize("name", sorted(GUARD_FIXTURES))
def test_each_guard_sends_its_counterexample_to_the_closure(
        name, closure_calls):
    source, guard, expected = GUARD_FIXTURES[name]
    pipeline = VerificationPipeline(fixture_stg(source))
    failing = {"structure": not is_live_reversible_marked_graph(
                   pipeline.stg.net),
               "consistency": not pipeline.consistency().consistent,
               "safeness": not pipeline.safeness().safe}
    assert [check for check, fails in failing.items() if fails] == [guard]
    report = verify(fixture_stg(source), checks=["liveness"])
    assert len(closure_calls) == 1
    assert (report.reversible, report.deadlock_free) == expected
    assert closure_verdicts(fixture_stg(source)) == expected


# ----------------------------------------------------------------------
# (c) Seeded re-marking mutants
# ----------------------------------------------------------------------
def remark(stg, rng):
    """A copy of ``stg`` with 1-3 places re-marked with 0-2 tokens and,
    in 30% of the copies, one initial value flipped."""
    mutant = stg.copy()
    places = mutant.net.places
    for place in rng.sample(places, rng.randint(1, min(3, len(places)))):
        mutant.net.set_initial_tokens(place, rng.choice((0, 1, 2)))
    if rng.random() < 0.3:
        signal = rng.choice(mutant.signals)
        mutant.set_initial_value(signal, not mutant.initial_value(signal))
    return mutant


def test_re_marked_mutants_never_make_the_shortcut_unsound():
    bases = [stg for stg in (load(name)[0] for name in SPECS)
             if is_marked_graph(stg.net)]
    rng = random.Random(23)
    decided = 0
    for _ in range(200):
        mutant = remark(rng.choice(bases), rng)
        if decided_by_structure(VerificationPipeline(mutant)):
            decided += 1
            assert closure_verdicts(mutant) == (True, True), mutant.name
    assert decided >= 10  # the sweep exercises the shortcut


# ----------------------------------------------------------------------
# (d) The pin: a live marked graph runs no closure
# ----------------------------------------------------------------------
def test_a_live_marked_graph_runs_no_closure(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("reversibility closure ran on a live "
                             "marked graph")

    monkeypatch.setattr(repro.core.pipeline, "check_reversibility", fail)
    report = verify(muller_pipeline(5), checks=["liveness"])
    assert report.deadlock_free is True
    assert report.reversible is True
    assert all(verdict.holds for verdict in report.verdicts)
