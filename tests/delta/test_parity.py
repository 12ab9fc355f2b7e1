"""The delta-parity contract: a warm-started re-check's *stable* JSON is
byte-identical to a cold run's, for every edit tier and every executor
backend.

This is the acceptance bar of the incremental-verification redesign: the
base entry may only change *how fast* the fixpoint is reached, never
what it is.  Each scenario runs the edited specification twice through
the real worker path (``SweepTask`` -> backend -> ``execute_payload``)
-- once cold, once with ``base_fingerprint`` pointing at the populated
store -- and byte-compares ``EntryResult.stable_dict()``.
"""

import json

import pytest

from repro import api
from repro.cache import reachable_fingerprint
from repro.runner import backends
from repro.runner.plan import SweepTask
from repro.runner.results import EntryResult
from repro.stg.writer import to_g_string

BUILTINS = ("process", "serial")

#: Edit fixtures by expected reuse tier (the removed-arc and renamed
#: edits diff against base_with_cycle; the rest against base_stg).
SCENARIOS = (
    ("edit_closed", "base_stg", "seed"),
    ("edit_open", "base_stg", "seed"),
    ("edit_new_arc", "base_stg", "cold"),
    ("edit_removed_arc", "base_with_cycle", "cold"),
    ("edit_renamed", "base_with_cycle", "cold"),
)


def run_task(task):
    """One task through a real backend, as the sweep fabric would."""
    results = {}
    backend = backends.get("serial")
    backend.execute([(0, task)], 1, lambda pos, res: results.update(
        {pos: res}))
    return results[0]


def stable(result: EntryResult) -> str:
    return json.dumps(result.stable_dict(), sort_keys=True)


@pytest.mark.parametrize("edit_name,base_name,tier", SCENARIOS)
def test_every_tier_matches_cold_byte_for_byte(edit_name, base_name,
                                               tier, request, tmp_path):
    base = request.getfixturevalue(base_name)
    edited = request.getfixturevalue(edit_name)
    cache = str(tmp_path / "bdd-store")
    config = api.EngineConfig(bdd_cache_dir=cache)
    api.run(base, config)  # populate the store with the base entry

    fingerprint = reachable_fingerprint(to_g_string(base), config)
    g_text = to_g_string(edited)
    cold_task = SweepTask(name="edited", g_text=g_text,
                          config=api.EngineConfig())
    delta_task = SweepTask(name="edited", g_text=g_text,
                           config=api.EngineConfig(
                               bdd_cache_dir=cache,
                               base_fingerprint=fingerprint))
    # base_fingerprint is an execution knob: same task content.
    assert cold_task.fingerprint == delta_task.fingerprint

    cold = run_task(cold_task)
    delta = run_task(delta_task)
    assert cold.status == "ok"
    assert delta.status == "ok"
    assert stable(delta) == stable(cold)
    # Not vacuous: the classifier really applied the expected tier.
    assert delta.report["delta"]["tier"] == tier
    assert cold.report["delta"] is None


@pytest.mark.parametrize("backend", BUILTINS)
def test_seed_parity_on_every_backend(backend, base_stg, edit_closed,
                                      tmp_path):
    cache = str(tmp_path / "bdd-store")
    config = api.EngineConfig(bdd_cache_dir=cache)
    api.run(base_stg, config)
    fingerprint = reachable_fingerprint(to_g_string(base_stg), config)
    g_text = to_g_string(edit_closed)

    cold = run_task(SweepTask(name="edited", g_text=g_text,
                              config=api.EngineConfig()))
    results = {}
    backends.get(backend).execute(
        [(0, SweepTask(name="edited", g_text=g_text,
                       config=api.EngineConfig(
                           bdd_cache_dir=cache,
                           base_fingerprint=fingerprint)))],
        2, lambda pos, res: results.update({pos: res}))
    delta = results[0]
    assert delta.status == "ok"
    assert stable(delta) == stable(cold)
    assert delta.report["delta"]["tier"] == "seed"


def test_volatile_counters_leave_the_stable_view(base_stg, edit_closed,
                                                 tmp_path):
    """The seeded traversal takes fewer iterations -- which is exactly
    why those counters are volatile and the stable views still match."""
    cache = str(tmp_path / "bdd-store")
    config = api.EngineConfig(bdd_cache_dir=cache)
    api.run(base_stg, config)
    fingerprint = reachable_fingerprint(to_g_string(base_stg), config)
    g_text = to_g_string(edit_closed)

    cold = run_task(SweepTask(name="edited", g_text=g_text,
                              config=api.EngineConfig()))
    delta = run_task(SweepTask(name="edited", g_text=g_text,
                               config=api.EngineConfig(
                                   bdd_cache_dir=cache,
                                   base_fingerprint=fingerprint)))
    assert delta.traversal["iterations"] < cold.traversal["iterations"]
    for volatile in ("iterations", "images_computed", "peak_nodes"):
        assert volatile not in delta.stable_dict()["traversal"]
    assert delta.stable_dict()["report"]["delta"] is None
    assert delta.stable_dict()["report"]["bdd_peak_nodes"] is None
    # The canonical fixpoint fields stay, and agree.
    for stable_field in ("num_states", "final_nodes", "num_variables"):
        assert delta.traversal[stable_field] == \
            cold.traversal[stable_field]
