"""The traversal's state count is the one count of R every check uses.

:func:`repro.core.csc.check_csc` decides USC from
``traversal_stats.num_states`` instead of counting the reachable set
again, so that count must be exact on every path that yields a
reachable set: a cold traversal, a BDD-store hit, and both delta tiers
(the identical-structure hit and the seeded traversal).
"""

import pytest

from repro import api, corpus
from repro.cache import BDDStore
from repro.delta import TIER_SEED
from repro.delta.warmstart import TIER_HIT
from repro.stg.parser import parse_g


def corpus_spec(name):
    return parse_g(corpus.entry(name).g_text, name=name)


def family_spec(name, scale):
    return corpus.family(name).instantiate(scale)[0]


SPECS = ([pytest.param(lambda name=name: corpus_spec(name), id=name)
          for name in corpus.names()]
         + [pytest.param(lambda family=family, scale=scale:
                         family_spec(family, scale),
                         id=f"{family}@{scale}")
            for family in corpus.FAMILIES for scale in (2, 3)])


def assert_exact_count(outcome):
    pipeline = outcome.pipeline
    assert (pipeline.traversal_stats.num_states
            == pipeline.encoding.count_states(pipeline.reached))
    assert outcome.report.num_states == pipeline.traversal_stats.num_states


@pytest.mark.parametrize("make", SPECS)
def test_every_path_stores_the_exact_state_count(make, tmp_path, copy_stg,
                                                 add_probe_cycle):
    config = api.EngineConfig(bdd_cache_dir=str(tmp_path / "bdd-store"))
    stg = make()
    cold = api.run(stg, config, checks="csc")
    assert_exact_count(cold)

    store = BDDStore.shared(config.bdd_cache_dir)
    hits = store.hits
    warm = api.run(stg, config, checks="csc")
    assert store.hits == hits + 1
    assert_exact_count(warm)

    renamed = api.run(copy_stg(stg, name="renamed"), config, checks="csc",
                      base=stg)
    assert renamed.report.delta["tier"] == TIER_HIT
    assert_exact_count(renamed)

    seeded = api.run(add_probe_cycle(copy_stg(stg, name="edited")), config,
                     checks="csc", base=stg)
    assert seeded.report.delta["tier"] == TIER_SEED
    assert_exact_count(seeded)
