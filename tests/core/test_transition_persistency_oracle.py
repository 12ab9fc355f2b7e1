"""The explicit oracle of the symbolic transition-persistency check.

The explicit engine reports signal persistency only, so nothing else
checks the transition-level verdict of Figure 6(a).
:func:`repro.petri.analysis.check_transition_persistency` enumerates the
net's markings and shares no BDD code with the symbolic check: both must
name the same ``(fired, disabled)`` transition pairs on every spec.
"""

import pytest

from repro import corpus
from repro.core.pipeline import VerificationPipeline
from repro.petri.analysis import check_transition_persistency

#: ``(name, scale)``: the corpus (no scale), two random families over
#: scales 13-32, and three larger instances of the structured families.
SPECS = ([(name, None) for name in corpus.names()]
         + [(family, scale) for family in ("random_ring", "random_parallel")
            for scale in range(13, 33)]
         + [("muller_pipeline", 6), ("master_read", 4), ("mutex", 3)])


@pytest.mark.parametrize(
    "name,scale", SPECS,
    ids=[name if scale is None else f"{name}@{scale}" for name, scale in SPECS])
def test_symbolic_pairs_equal_the_explicit_oracle(name, scale):
    stg = (corpus.load(name) if scale is None
           else corpus.family(name).builder(scale))
    symbolic = VerificationPipeline(stg).conflict_pairs().transition_persistency
    explicit = check_transition_persistency(stg.net)
    assert symbolic.violating_pairs() == explicit.conflicting_pairs()
    assert symbolic.persistent == explicit.persistent


def test_both_outcomes_are_covered():
    outcomes = {check_transition_persistency(corpus.load(name).net).persistent
                for name in corpus.names()}
    assert outcomes == {True, False}
