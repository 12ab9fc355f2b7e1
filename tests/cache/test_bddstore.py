"""The persistent reachable-set cache: hits, misses, the file layout.

Every entry is one ``<fingerprint>.bdd`` file.  The miss contract
mirrors the RunStore's: a changed content, engine config or store
schema is another fingerprint, whose missing file silently falls back
to a cold traversal, while a *corrupt* file warns with
:class:`BDDStoreWarning` and recomputes -- never crashes, never serves
garbage.
"""

import os
import sys
import threading
import warnings

import pytest

from repro import api, obs
from repro.cache import (
    BDD_SCHEMA_VERSION,
    BDDStore,
    BDDStoreWarning,
    bind_pipeline,
    reachable_fingerprint,
)
from repro.cache import bddstore
from repro.cache.bddstore import FORMAT_HEADER
from repro.core.pipeline import VerificationPipeline
from repro.stg.generators import build_example
from repro.stg.writer import to_g_string


@pytest.fixture
def store(tmp_path):
    return BDDStore(str(tmp_path / "bdd-store"))


def fresh_pipeline(scale=6):
    return VerificationPipeline(build_example("muller_pipeline", scale))


def bound_pipeline(store, scale=6, config=None):
    pipeline = fresh_pipeline(scale)
    config = config or api.EngineConfig()
    bind_pipeline(pipeline, store, name=pipeline.stg.name, config=config)
    return pipeline


class TestHitPath:
    def test_cold_run_persists_then_warm_run_hits(self, store):
        cold = bound_pipeline(store)
        cold_reached = cold.reached
        assert fingerprint_of(cold) in store
        assert store.hits == 0

        warm = bound_pipeline(store)
        warm_reached = warm.reached
        assert store.hits == 1
        care = warm.encoding.all_variables
        assert (warm_reached.sat_count(care)
                == cold_reached.sat_count(care))

    def test_hit_restores_the_cold_traversal_stats(self, store):
        cold = bound_pipeline(store)
        cold.reached
        warm = bound_pipeline(store)
        warm.reached
        assert warm.traversal_stats.to_dict() == \
            cold.traversal_stats.to_dict()

    def test_hit_report_matches_cold_report_except_timings(self, tmp_path):
        stg = build_example("muller_pipeline", 6)
        directory = str(tmp_path / "shared")
        config = api.EngineConfig(bdd_cache_dir=directory)
        cold = api.verify(stg, config)
        warm = api.verify(stg, config)
        assert BDDStore.shared(directory).hits == 1
        cold_dict, warm_dict = cold.to_dict(), warm.to_dict()
        cold_dict["timings"] = warm_dict["timings"] = None
        assert cold_dict == warm_dict


class TestInvalidation:
    def test_fingerprint_covers_the_reachability_config(self):
        g_text = to_g_string(build_example("muller_pipeline", 4))
        base = reachable_fingerprint(g_text, api.EngineConfig())
        assert base == reachable_fingerprint(g_text, api.EngineConfig())
        assert base != reachable_fingerprint(
            g_text, api.EngineConfig(ordering="declaration"))
        assert base != reachable_fingerprint(g_text + "\n#x",
                                             api.EngineConfig())

    def test_execution_knobs_do_not_invalidate(self):
        g_text = to_g_string(build_example("muller_pipeline", 4))
        base = reachable_fingerprint(g_text, api.EngineConfig())
        assert base == reachable_fingerprint(
            g_text, api.EngineConfig(timeout=9.0,
                                     bdd_cache_dir="/elsewhere",
                                     arbitration_places=("p0",)))
        assert base == reachable_fingerprint(
            g_text, api.EngineConfig(traversal_strategy="frontier"))

    def test_config_mismatch_falls_back_to_cold_traversal(self, store):
        cold = bound_pipeline(store)
        cold.reached
        changed = bound_pipeline(
            store, config=api.EngineConfig(ordering="declaration"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must NOT warn: plain miss
            changed.reached
        assert (store.hits, store.misses) == (0, 2)
        # The cold fallback computed (and persisted) a real result.
        assert changed.traversal_stats.iterations > 0

    def test_corrupt_entry_warns_and_recomputes(self, store):
        cold = bound_pipeline(store)
        cold.reached
        path = store._path(fingerprint_of(cold))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{FORMAT_HEADER}\nmeta {{not json\ngarbage\n")
        recovered = bound_pipeline(store)
        with pytest.warns(BDDStoreWarning, match="corrupt BDD-store"):
            recovered.reached
        assert recovered.traversal_stats.iterations > 0
        care = recovered.encoding.all_variables
        assert (recovered.reached.sat_count(care)
                == cold.reached.sat_count(care))

    def test_wrong_store_header_is_corrupt(self, store):
        cold = bound_pipeline(store)
        cold.reached
        path = store._path(fingerprint_of(cold))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("bddstore 999\n")
        with pytest.warns(BDDStoreWarning):
            bound_pipeline(store).reached

    def test_older_schema_entry_is_a_silent_miss(self, store,
                                                 monkeypatch):
        # The schema version is fingerprint material, so an entry an
        # older schema wrote has another file name: never opened, a
        # plain miss without a warning.
        monkeypatch.setattr(bddstore, "BDD_SCHEMA_VERSION",
                            BDD_SCHEMA_VERSION - 1)
        monkeypatch.setattr(bddstore, "FORMAT_HEADER",
                            f"bddstore {BDD_SCHEMA_VERSION - 1}")
        bound_pipeline(store).reached
        monkeypatch.undo()
        [older] = bdd_files(store)
        with open(os.path.join(store.directory, older), "rb") as handle:
            written = handle.read()
        reads = count_meta_reads(monkeypatch)
        stale = bound_pipeline(store)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must NOT warn: plain miss
            stale.reached
        assert reads == []
        assert (store.hits, store.misses) == (0, 2)
        assert stale.traversal_stats.iterations > 0
        assert bdd_files(store) == sorted(
            [older, f"{fingerprint_of(stale)}.bdd"])
        with open(os.path.join(store.directory, older), "rb") as handle:
            assert handle.read() == written
        bound_pipeline(store).reached
        assert store.hits == 1

    def test_truncated_bdd_section_is_corrupt(self, store):
        cold = bound_pipeline(store)
        cold.reached
        path = store._path(fingerprint_of(cold))
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:3])  # cut mid-serialisation
        with pytest.warns(BDDStoreWarning):
            bound_pipeline(store).reached


class TestNameSharing:
    """Two contents under one name (the editor-loop shape: an edited spec
    usually keeps the base's ``.model`` name) are two files, both served
    warm, and names that once mapped to one file no longer collide."""

    def test_two_contents_under_one_name_both_serve_warm(self, store):
        declaration = api.EngineConfig(ordering="declaration")
        first = bound_pipeline(store)
        first.reached
        second = bound_pipeline(store, config=declaration)
        second.reached  # miss + persist under the same name
        assert pipeline_name(first) == pipeline_name(second)
        assert bdd_files(store) == sorted(
            [f"{fingerprint_of(first)}.bdd",
             f"{fingerprint_of(second, declaration)}.bdd"])
        # Both contents now serve warm, neither evicted the other.
        bound_pipeline(store).reached
        bound_pipeline(store, config=declaration).reached
        assert store.hits == 2

    def test_names_that_sanitise_alike_both_serve_warm(self, store):
        # "pipe/4" and "pipe_4" once mapped to one "pipe_4.bdd" file,
        # and each run of one warned about the other's entry.
        specs = []
        for name, scale in (("pipe/4", 4), ("pipe_4", 5)):
            stg = build_example("muller_pipeline", scale)
            stg.name = name
            specs.append(stg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must NOT warn
            for stg in specs + specs:
                pipeline = VerificationPipeline(stg)
                bind_pipeline(pipeline, store, name=stg.name,
                              config=api.EngineConfig())
                pipeline.reached
        assert (store.hits, store.misses) == (2, 2)
        assert len(bdd_files(store)) == 2


class TestLayout:
    """One ``<fingerprint>.bdd`` file per content, checked on every read
    and written without reading anything first."""

    def test_a_put_reads_no_entry_first(self, store, monkeypatch):
        pipeline = bound_pipeline(store)
        pipeline.reached
        reads = count_meta_reads(monkeypatch)
        store.put(pipeline_name(pipeline), "e" * 64, pipeline.reached,
                  pipeline.traversal_stats)
        assert reads == []
        assert len(bdd_files(store)) == 2

    def test_corrupt_entry_is_rewritten_in_place(self, store):
        cold = bound_pipeline(store)
        cold.reached
        path = store._path(fingerprint_of(cold))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{FORMAT_HEADER}\nmeta {{not json\ngarbage\n")
        recovered = bound_pipeline(store)
        with pytest.warns(BDDStoreWarning, match="corrupt BDD-store"):
            recovered.reached
        # The unreadable file was overwritten in place, no other file
        # appeared, and the entry serves warm again.
        assert bdd_files(store) == [os.path.basename(path)]
        bound_pipeline(store).reached
        assert store.hits == 1

    def test_a_file_recording_another_fingerprint_is_not_served(
            self, store):
        declaration = api.EngineConfig(ordering="declaration")
        base = bound_pipeline(store)
        base.reached
        other = bound_pipeline(store, config=declaration)
        other.reached
        fingerprint = fingerprint_of(base)
        path = store._path(fingerprint)
        with open(store._path(fingerprint_of(other, declaration)),
                  "rb") as source, open(path, "wb") as target:
            target.write(source.read())
        with pytest.warns(BDDStoreWarning, match="records fingerprint"):
            assert store.find(fingerprint) is None
        recovered = bound_pipeline(store)
        with pytest.warns(BDDStoreWarning, match="records fingerprint"):
            recovered.reached
        assert recovered.traversal_stats.iterations > 0
        # The put rewrote the file with the right content.
        found = store.find(fingerprint)
        assert found is not None and found[0] == path
        bound_pipeline(store).reached
        assert store.hits == 1


class TestEngineIntegration:
    def test_engine_config_dir_round_trips_through_the_facade(
            self, tmp_path):
        directory = str(tmp_path / "engine-store")
        stg = build_example("muller_pipeline", 5)
        config = api.EngineConfig(bdd_cache_dir=directory)
        first = api.run(stg, config)
        second = api.run(stg, config)
        assert first.traversal == second.traversal
        first_dict = first.report.to_dict()
        second_dict = second.report.to_dict()
        first_dict["timings"] = second_dict["timings"] = None
        assert first_dict == second_dict

    def test_different_checks_share_the_stored_traversal(self, tmp_path):
        directory = str(tmp_path / "engine-store")
        stg = build_example("muller_pipeline", 5)
        config = api.EngineConfig(bdd_cache_dir=directory)
        full = api.run(stg, config)
        subset = api.run(stg, config, checks=("csc",))
        assert subset.traversal == full.traversal  # served, not re-run
        assert subset.report.csc == full.report.csc


    def test_a_traced_verify_spans_its_lookup_with_the_outcome(
            self, tmp_path):
        stg = build_example("muller_pipeline", 5)
        config = api.EngineConfig(
            bdd_cache_dir=str(tmp_path / "engine-store"))
        hits = []
        for _ in range(2):
            sink = obs.InMemorySink()
            with obs.tracing(name="verify", sink=sink):
                api.verify(stg, config)
            (lookup,) = [record for record in sink.spans()
                         if record["name"] == "bddstore.lookup"]
            hits.append(lookup["attrs"]["hit"])
        assert hits == [False, True]

    def test_an_untraced_lookup_shares_the_no_op_span(self, store,
                                                      monkeypatch):
        opened = {}
        span = obs.span

        def recording(name, manager=None, **attrs):
            opened[name] = span(name, manager=manager, **attrs)
            return opened[name]

        monkeypatch.setattr(obs, "span", recording)
        bound_pipeline(store).reached
        assert opened["bddstore.lookup"] is obs.NULL_SPAN


class TestSharedStore:
    def test_shared_returns_one_instance_per_directory(self, tmp_path):
        first = BDDStore.shared(str(tmp_path / "a"))
        again = BDDStore.shared(str(tmp_path / "a"))
        other = BDDStore.shared(str(tmp_path / "b"))
        assert first is again
        assert first is not other

    def test_engine_runs_aggregate_counters_on_the_shared_store(
            self, tmp_path):
        # The always-warm contract of repro.serve: the facade binds the
        # process-wide instance, so its counters span runs.
        directory = str(tmp_path / "engine-store")
        stg = build_example("muller_pipeline", 5)
        config = api.EngineConfig(bdd_cache_dir=directory)
        store = BDDStore.shared(directory)
        api.run(stg, config)
        assert store.misses == 1 and store.hits == 0
        api.run(stg, config, checks=("csc",))
        assert store.hits == 1  # second run served from the same object


class TestConcurrentPuts:
    def test_threads_rewriting_one_entry_never_collide(self, store):
        """Every writer of one entry used to share one temporary file, so
        a rename could find it already renamed away by another writer."""
        pipeline = fresh_pipeline(scale=3)
        reached, stats = pipeline.reached, pipeline.traversal_stats
        name = pipeline_name(pipeline)
        barrier = threading.Barrier(4)
        errors = []

        def writer():
            barrier.wait(timeout=30)
            try:
                for _ in range(40):
                    store.put(name, "f" * 64, reached, stats)
            except OSError as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # One intact entry, no stray temporaries.
        assert os.listdir(store.directory) == [f"{'f' * 64}.bdd"]
        assert store.find("f" * 64) is not None


def pipeline_name(pipeline) -> str:
    return pipeline.stg.name


def fingerprint_of(pipeline, config=None) -> str:
    """The fingerprint :func:`bound_pipeline` stores ``pipeline`` under."""
    return reachable_fingerprint(to_g_string(pipeline.stg),
                                 config or api.EngineConfig())


def bdd_files(store):
    return sorted(entry for entry in os.listdir(store.directory)
                  if entry.endswith(".bdd"))


def count_meta_reads(monkeypatch):
    """The fingerprints of every entry meta read from now on."""
    reads = []
    read_meta = BDDStore._read_meta

    def counting(handle, fingerprint):
        reads.append(fingerprint)
        return read_meta(handle, fingerprint)

    monkeypatch.setattr(BDDStore, "_read_meta", staticmethod(counting))
    return reads
