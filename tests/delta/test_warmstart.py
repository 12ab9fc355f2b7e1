"""Delta warm-starts end to end through the facade (repro.delta.warmstart).

Every tier is driven the way users reach it -- ``api.run(..., base=...)``
against a populated BDD store -- and observed through the report's
``delta`` provenance block and the store's delta counters.
"""

import os
import shutil

import pytest

from repro import api, corpus, obs
from repro.api.facade import resolve_base
from repro.cache import BDDStore, BDDStoreWarning, bind_pipeline
from repro.core.pipeline import VerificationPipeline
from repro.delta import TIER_COLD, TIER_SEED, warmstart
from repro.delta.warmstart import TIER_HIT
from repro.stg.parser import parse_g
from tests.cache.test_bddstore import count_meta_reads


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


def lift_by_probing(encoding, base_reached, base_variables):
    """The lifting ``extend_to_encoding`` replaced, kept as its oracle:
    each added variable's value probed by ANDing the initial cube with
    the variable, and the initial state united into every seed."""
    manager = encoding.manager
    initial = encoding.initial_state()
    known = set(base_variables)
    literals = {name: not (initial & manager.var(name)).is_false()
                for name in encoding.all_variables if name not in known}
    return (base_reached & manager.cube(literals)) | initial


class TestLifting:
    """The seed reads each added variable's value off the STG and
    builds the same BDD as probing the initial cube did."""

    def assert_lifts_as_probing(self, base, edited, config, store):
        api.run(base, config, checks="csc")
        seeded = api.run(edited, config, checks="csc", base=base)
        assert seeded.report.delta["tier"] == TIER_SEED
        encoding = seeded.pipeline.encoding
        path, _ = store.find(resolve_base(base, config))
        base_reached, base_variables = store.load_entry(path,
                                                        encoding.manager)
        # An empty base lifts to the initial state alone.
        for start in (base_reached, encoding.manager.false):
            assert (warmstart.extend_to_encoding(encoding, start,
                                                 base_variables)
                    == lift_by_probing(encoding, start, base_variables))

    @pytest.mark.parametrize("edit", ["edit_closed", "edit_open"])
    def test_the_edits_seed_as_probing_did(self, edit, base_stg, config,
                                           store, request):
        self.assert_lifts_as_probing(base_stg, request.getfixturevalue(edit),
                                     config, store)

    @pytest.mark.parametrize("name", corpus.names())
    def test_corpus_probe_edits_seed_as_probing_did(
            self, name, config, store, copy_stg, add_probe_cycle):
        base = parse_g(corpus.g_text(name), name=name)
        self.assert_lifts_as_probing(
            base, add_probe_cycle(copy_stg(base, name="edited")), config,
            store)


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

    def test_a_corrupt_base_warns_and_is_named_until_rechecked(
            self, populated, config, store, edit_closed, edit_open):
        fingerprint = resolve_base(populated, config)
        with open(os.path.join(store.directory, f"{fingerprint}.bdd"),
                  "w", encoding="utf-8") as handle:
            handle.write("bddstore 4\nmeta {not json\n")
        with pytest.warns(BDDStoreWarning, match="corrupt BDD-store entry"):
            warm = api.run(edit_closed, config, base=populated)
        assert warm.report.delta["tier"] == TIER_COLD
        assert warm.report.delta["reasons"] == \
            [f"the base's stored entry {fingerprint}.bdd is corrupt"]
        # Re-checking the base rewrites its file, so edits seed again.
        with pytest.warns(BDDStoreWarning, match="corrupt BDD-store entry"):
            api.run(populated, config)
        assert api.run(edit_open, config, base=populated).report.delta[
            "tier"] == TIER_SEED

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


class TestInitialValueOverrides:
    """A base is keyed by the text its run stored: the STG with the
    config's initial-value overrides applied."""

    def test_name_stg_and_stored_keys_agree_and_an_edit_seeds(
            self, tmp_path, copy_stg, add_probe_cycle):
        config = api.EngineConfig(initial_values={"d": True},
                                  bdd_cache_dir=str(tmp_path / "store"))
        base = parse_g(corpus.g_text("vme_read"), name="vme_read")
        assert base.initial_value("d") is False  # the override matters
        stored = bind_pipeline(
            VerificationPipeline(base,
                                 initial_values=config.initial_values_dict),
            BDDStore.shared(config.bdd_cache_dir), name="vme_read",
            config=config)
        assert resolve_base("vme_read", config) == stored
        assert resolve_base(base, config) == stored

        api.run(base, config, checks=["consistency"])
        edited = add_probe_cycle(copy_stg(base))
        outcome = api.run(edited, config, checks=["consistency"],
                          base="vme_read")
        assert outcome.report.delta["tier"] == TIER_SEED


class TestEditHistory:
    """An editor loop stores one file per edit beside its base's (every
    edit keeps the base's ``.model`` name); a re-check's cost must not
    grow with that history."""

    EDITS = 50

    @pytest.fixture
    def history(self, base_stg, config, copy_stg, add_probe_cycle):
        api.run(base_stg, config, checks=["csc"])

        def edit(index):
            return add_probe_cycle(copy_stg(base_stg),
                                   signal=f"probe{index}")

        for index in range(self.EDITS):
            outcome = api.run(edit(index), config, checks=["csc"],
                              base=base_stg)
            assert outcome.report.delta["tier"] == TIER_SEED
        return edit

    def test_a_recheck_reads_exactly_one_entry_meta(
            self, history, base_stg, config, store, monkeypatch):
        stored = [name for name in os.listdir(store.directory)
                  if name.endswith(".bdd")]
        assert len(stored) == self.EDITS + 1
        reads = count_meta_reads(monkeypatch)
        outcome = api.run(history(self.EDITS), config, checks=["csc"],
                          base=base_stg)
        assert outcome.report.delta["tier"] == TIER_SEED
        # The base's: the exact lookup of the edit finds no file.
        assert len(reads) == 1

    def test_entries_another_store_wrote_are_still_found(
            self, history, base_stg, config, monkeypatch):
        # A fresh object on the same directory (another process) opens
        # the base's file by name: it never lists the directory.
        other = BDDStore(config.bdd_cache_dir)

        def no_listing(path):
            raise OSError(f"listed {path}")

        monkeypatch.setattr(os, "listdir", no_listing)
        found = other.find(resolve_base(base_stg, config))
        assert found is not None
        assert found[1]["name"] == base_stg.name

    def test_a_base_file_that_changed_is_not_trusted(
            self, history, base_stg, config, store):
        fingerprint = resolve_base(base_stg, config)
        path, _ = store.find(fingerprint)
        edit = next(name for name in sorted(os.listdir(store.directory))
                    if name.endswith(".bdd")
                    and name != os.path.basename(path))
        shutil.copyfile(os.path.join(store.directory, edit), path)
        with pytest.warns(BDDStoreWarning, match="records fingerprint"):
            assert store.find(fingerprint) is None  # now holds an edit
        os.remove(path)
        assert store.find(fingerprint) is None
        api.run(base_stg, config, checks=["csc"])
        assert store.find(fingerprint)[0] == path


class TestDeltaSpans:
    def test_a_traced_recheck_shows_where_the_delta_time_goes(
            self, populated, config, edit_closed):
        sink = obs.InMemorySink()
        with obs.tracing(name="recheck", sink=sink):
            api.run(edit_closed, config, checks=["csc"], base=populated)
        spans = {record["name"]: record for record in sink.spans()}
        delta = spans["delta"]
        for name in ("bddstore.find", "delta.parse_base", "delta.classify",
                     "bddstore.load"):
            assert spans[name]["parent"] == delta["id"], name
        assert "bddstore.put" in spans


class TestBaseParse:
    def test_rechecks_against_one_base_parse_it_once(
            self, populated, config, copy_stg, add_probe_cycle,
            monkeypatch):
        warmstart.base_stg.cache_clear()
        parses = []

        def counting_parse(*args, **kwargs):
            parses.append(args)
            return parse_g(*args, **kwargs)

        monkeypatch.setattr(warmstart, "parse_g", counting_parse)
        for index in range(3):
            edited = add_probe_cycle(copy_stg(populated),
                                     signal=f"probe{index}")
            outcome = api.run(edited, config, checks=["csc"],
                              base=populated)
            assert outcome.report.delta["tier"] == TIER_SEED
        assert len(parses) == 1


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
