"""Cross-engine parity through the public facade.

Every fixed-size (non-family) corpus entry is verified through
``repro.api.verify`` with both registered built-in engines; the engines
must agree on the classification and -- when the specification is
consistent, so the state spaces coincide -- on every per-check verdict
field.  This is the API-level counterpart of the pipeline-level
cross-validation in tests/corpus/test_cross_engine.py: it exercises the
registry dispatch, the config normalisation and the check appliers
end to end.
"""

import pytest

from repro import corpus
from repro.api import ALL, EngineConfig, verify
from repro.api.checks import available_checks

#: The hand-written, fixed-size entries (family-derived entries are
#: covered by the family sweeps and the existing cross-engine tests).
NON_FAMILY = [name for name in corpus.names()
              if corpus.entry(name).family is None]

#: Report fields each check fills; parity is asserted per check.
CHECK_FIELDS = {
    "consistency": ("consistent",),
    "persistency": ("output_persistent",),
    "fake_conflicts": ("fake_free",),
    "csc": ("csc", "usc"),
    "reducibility": ("deterministic", "commutative", "complementary_free"),
    "liveness": ("deadlock_free", "reversible"),
}


def _reports(name):
    entry = corpus.entry(name)
    stg = corpus.load(name)
    reports = {}
    for engine in ("symbolic", "explicit"):
        config = EngineConfig(
            engine=engine,
            arbitration_places=tuple(entry.arbitration_places))
        reports[engine] = verify(corpus.load(name), config, checks=ALL)
    assert stg.name == name
    return reports


def test_non_family_selection_is_nonempty():
    assert len(NON_FAMILY) >= 10


@pytest.mark.parametrize("name", NON_FAMILY)
def test_engines_agree_through_the_facade(name):
    reports = _reports(name)
    symbolic, explicit = reports["symbolic"], reports["explicit"]

    # The classification is pinned by the registry for every entry and
    # must be identical across engines (both were validated against the
    # same expected metadata).
    assert symbolic.classification == explicit.classification

    entry = corpus.entry(name)
    assert entry.mismatches(symbolic) == []
    assert entry.mismatches(explicit) == []

    if not symbolic.consistent:
        return  # state spaces differ by construction beyond this point
    assert symbolic.num_states == explicit.num_states
    for check, fields in CHECK_FIELDS.items():
        for field in fields:
            assert getattr(symbolic, field) == getattr(explicit, field), \
                f"{name}: engines disagree on {check}/{field}"


@pytest.mark.parametrize("check", available_checks())
def test_single_check_reports_the_state_count(check):
    """Every check that enumerates the state graph reports its size;
    ``safeness`` works on the net alone and builds no graph."""
    counts = {engine: verify(corpus.load("vme_read"),
                             EngineConfig(engine=engine),
                             checks=[check]).num_states
              for engine in ("symbolic", "explicit")}
    expected = 0 if check == "safeness" else counts["symbolic"]
    assert counts == {"symbolic": 14, "explicit": expected}


@pytest.mark.smoke
@pytest.mark.parametrize("name", ["handshake", "vme_read", "inconsistent"])
def test_facade_parity_smoke_subset(name):
    reports = _reports(name)
    assert reports["symbolic"].classification == \
        reports["explicit"].classification
