"""Delta warm-starts end to end through the facade (repro.delta.warmstart).

Every tier is driven the way users reach it -- ``api.run(..., base=...)``
against a populated BDD store -- and observed through the report's
``delta`` provenance block and the store's delta counters.
"""

import pytest

from repro import api, corpus
from repro.api.facade import resolve_base
from repro.cache import BDDStore, bind_pipeline
from repro.core.pipeline import VerificationPipeline
from repro.delta import TIER_COLD, TIER_SEED
from repro.delta.warmstart import TIER_HIT


@pytest.fixture
def config(tmp_path):
    return api.EngineConfig(bdd_cache_dir=str(tmp_path / "bdd-store"))


@pytest.fixture
def store(config):
    return BDDStore.shared(config.bdd_cache_dir)


@pytest.fixture
def populated(base_stg, config):
    """Run the base cold so the store holds its reachable set."""
    api.run(base_stg, config)
    return base_stg


class TestSeedTier:
    def test_closed_edit_seeds_and_matches_cold(self, populated, config,
                                                store, edit_closed):
        cold = api.run(edit_closed, api.EngineConfig())
        warm = api.run(edit_closed, config, base=populated)
        assert warm.report.delta["tier"] == TIER_SEED
        assert warm.report.delta["closed"] is True
        assert store.delta_seeds == 1
        assert warm.report.num_states == cold.report.num_states
        assert warm.report.csc == cold.report.csc
        assert warm.report.consistent == cold.report.consistent

    def test_open_edit_seeds_full_sweep(self, populated, config, store,
                                        edit_open):
        warm = api.run(edit_open, config, base=populated)
        assert warm.report.delta["tier"] == TIER_SEED
        assert warm.report.delta["closed"] is False
        assert store.delta_seeds == 1

    def test_provenance_names_the_base_and_summary(self, populated,
                                                   config, edit_closed):
        warm = api.run(edit_closed, config, base=populated)
        delta = warm.report.delta
        assert len(delta["base"]) == 64
        assert delta["summary"]["added_signals"] == 1
        assert delta["reasons"]
        assert "delta: tier seed" in warm.report.summary()


class TestHitTier:
    def test_model_rename_adopts_the_stored_set(self, populated, config,
                                                store, copy_stg):
        renamed = copy_stg(populated, name="renamed")
        cold = api.run(renamed, api.EngineConfig())
        warm = api.run(renamed, config, base=populated)
        assert warm.report.delta["tier"] == TIER_HIT
        assert store.delta_hits == 1
        assert warm.report.num_states == cold.report.num_states
        assert warm.report.csc == cold.report.csc
        # No traversal at all: the stored set was adopted wholesale.
        assert warm.traversal["iterations"] == \
            api.run(populated, config).traversal["iterations"]


class TestColdTier:
    def test_new_arc_runs_cold(self, populated, config, store,
                               edit_new_arc):
        warm = api.run(edit_new_arc, config, base=populated)
        assert warm.report.delta["tier"] == TIER_COLD
        assert store.delta_colds == 1
        assert store.delta_seeds == 0
        assert any("changes existing transition" in reason
                   for reason in warm.report.delta["reasons"])

    def test_removed_arc_falls_back_cold(self, base_with_cycle, config,
                                         store, edit_removed_arc):
        api.run(base_with_cycle, config)
        warm = api.run(edit_removed_arc, config, base=base_with_cycle)
        assert warm.report.delta["tier"] == TIER_COLD
        assert store.delta_colds == 1
        assert any("removed arc" in reason
                   for reason in warm.report.delta["reasons"])

    def test_unknown_base_fingerprint_is_cold(self, config, store,
                                              edit_closed):
        warm = api.run(edit_closed, config, base="0" * 64)
        assert warm.report.delta["tier"] == TIER_COLD
        assert warm.report.delta["reasons"] == \
            ["no stored entry matches the base fingerprint"]

    def test_base_without_specification_text_is_cold(
            self, base_stg, config, store, edit_closed):
        # Only a direct put without g_text writes such an entry.
        pipeline = VerificationPipeline(base_stg)
        store.put("textless", "f" * 64, pipeline.reached,
                  pipeline.traversal_stats)
        warm = api.run(edit_closed, config, base="f" * 64)
        assert warm.report.delta["tier"] == TIER_COLD
        assert warm.report.delta["reasons"] == \
            ["base entry stores no specification text"]
        assert store.delta_colds == 1


class TestBaseByCorpusName:
    """A corpus entry named as the base resolves to the key its run
    stored, even where the registry text is not in the writer's form."""

    @pytest.mark.parametrize("name", corpus.names())
    def test_resolves_to_the_stored_key(self, name, config, store):
        stored = bind_pipeline(VerificationPipeline(corpus.load(name)),
                               store, name=name, config=config)
        assert resolve_base(name, config) == stored

    @pytest.mark.parametrize("name", corpus.names())
    def test_edit_warm_starts_from_the_entry(self, name, config, copy_stg,
                                             add_probe_cycle):
        base = corpus.load(name)
        api.run(base, config, checks=["consistency"])
        edited = add_probe_cycle(copy_stg(base))
        outcome = api.run(edited, config, checks=["consistency"], base=name)
        assert outcome.report.delta["tier"] in (TIER_SEED, TIER_HIT)


class TestFacadeValidation:
    def test_base_requires_a_cache_dir(self, base_stg):
        with pytest.raises(api.ApiError, match="bdd_cache_dir"):
            api.run(base_stg, api.EngineConfig(), base="0" * 64)

    def test_base_requires_the_symbolic_engine(self, base_stg, tmp_path):
        config = api.EngineConfig(engine="explicit",
                                  bdd_cache_dir=str(tmp_path))
        with pytest.raises(api.ApiError, match="symbolic"):
            api.run(base_stg, config, base="0" * 64)

    def test_unknown_base_name_is_an_api_error(self, base_stg, config):
        with pytest.raises(api.ApiError, match="neither a reachability"):
            api.run(base_stg, config, base="no-such-entry")

    def test_bad_fingerprint_config_is_rejected(self):
        with pytest.raises(api.ApiError, match="base_fingerprint"):
            api.EngineConfig(base_fingerprint="not-hex")
