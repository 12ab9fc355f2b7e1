"""A verification leaves no reference cycle behind.

Every BDD walk that recurses through a closure empties the closure's
cell when it ends, so once the caller drops the outcome, reference
counting frees the manager and everything it holds: the cycle collector
finds nothing.  The runs cover a USC spec and a CSC violator (whose
complementary-sequence check runs the ``disjoint`` walk), each with and
without a BDD store (whose ``put`` runs ``dump``).
"""

import gc
import weakref

import pytest

from repro.api import ALL, EngineConfig, run
from repro.stg.generators import irreducible_csc_example, muller_pipeline

SPECS = {
    "usc": lambda: muller_pipeline(4),
    "csc_violator": irreducible_csc_example,
}


@pytest.mark.parametrize("store", [False, True],
                         ids=["no_store", "bdd_store"])
@pytest.mark.parametrize("spec", sorted(SPECS))
def test_run_frees_its_manager_without_the_cycle_collector(spec, store,
                                                           tmp_path):
    def config(name):
        return EngineConfig(
            bdd_cache_dir=str(tmp_path / name) if store else None)

    # A first run pays the lazy imports; the measured one misses its
    # own fresh store, so it traverses and stores the reachable set.
    run(SPECS[spec](), config("first"), checks=ALL)
    gc.collect()
    gc.disable()
    try:
        outcome = run(SPECS[spec](), config("measured"), checks=ALL)
        manager = weakref.ref(outcome.pipeline.manager)
        del outcome
        assert manager() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
