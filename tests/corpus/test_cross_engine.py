"""Cross-engine validation of the corpus metadata.

Every entry is checked by both the symbolic (BDD) and the explicit (state
graph) engine; both must reproduce the registry's expected verdicts.  The
engines only need to agree on the *pinned* keys: e.g. on an inconsistent
specification the symbolic traversal prunes states without a consistent
binary code, so the raw state counts legitimately differ and the registry
does not pin them.
"""

import pytest

from repro import corpus
from repro.api import ALL, EngineConfig, verify


def _report(entry, engine):
    config = EngineConfig(engine=engine,
                          arbitration_places=tuple(entry.arbitration_places))
    return verify(corpus.load(entry.name), config, checks=ALL)


def _symbolic_report(entry):
    return _report(entry, "symbolic")


def _explicit_report(entry):
    return _report(entry, "explicit")


@pytest.mark.parametrize("name", corpus.names())
def test_symbolic_engine_matches_expected_metadata(name):
    entry = corpus.entry(name)
    assert entry.mismatches(_symbolic_report(entry)) == []


@pytest.mark.parametrize("name", corpus.names())
def test_explicit_engine_matches_expected_metadata(name):
    entry = corpus.entry(name)
    assert entry.mismatches(_explicit_report(entry)) == []


@pytest.mark.parametrize("name", corpus.names())
def test_engines_agree_on_consistent_entries(name):
    entry = corpus.entry(name)
    symbolic = _symbolic_report(entry)
    explicit = _explicit_report(entry)
    assert symbolic.consistent == explicit.consistent
    if not symbolic.consistent:
        return  # state spaces differ by construction; nothing more to compare
    assert symbolic.num_states == explicit.num_states
    assert symbolic.output_persistent == explicit.output_persistent
    assert symbolic.csc == explicit.csc
    assert symbolic.usc == explicit.usc
    assert symbolic.deadlock_free == explicit.deadlock_free
    assert symbolic.reversible == explicit.reversible
    assert symbolic.classification == explicit.classification
