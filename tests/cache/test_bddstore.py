"""The persistent reachable-set cache: hits, invalidation, warm starts.

The invalidation contract mirrors the RunStore's: a fingerprint mismatch
(content or engine-config change) silently falls back to a cold
traversal, while a *corrupt* entry warns with :class:`BDDStoreWarning`
and recomputes -- never crashes, never serves garbage.
"""

import os
import sys
import threading
import warnings

import pytest

from repro import api
from repro.cache import (
    BDDStore,
    BDDStoreWarning,
    bind_pipeline,
    reachable_fingerprint,
)
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
        assert pipeline_name(cold) in store
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
        assert store.hits == 0
        assert store.invalidations == 1
        # The cold fallback computed (and re-persisted) a real result.
        assert changed.traversal_stats.iterations > 0

    def test_corrupt_entry_warns_and_recomputes(self, store):
        cold = bound_pipeline(store)
        cold.reached
        path = store._path(pipeline_name(cold))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("bddstore 2\nmeta {not json\ngarbage\n")
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
        path = store._path(pipeline_name(cold))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("bddstore 999\n")
        with pytest.warns(BDDStoreWarning):
            bound_pipeline(store).reached

    def test_truncated_bdd_section_is_corrupt(self, store):
        cold = bound_pipeline(store)
        cold.reached
        path = store._path(pipeline_name(cold))
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:3])  # cut mid-serialisation
        with pytest.warns(BDDStoreWarning):
            bound_pipeline(store).reached


class TestNameSharing:
    """Two contents under one name coexist (the editor-loop shape: an
    edited spec usually keeps the base's ``.model`` name, and its run
    must not evict the base entry)."""

    def test_second_content_parks_on_the_overflow_path(self, store):
        bound_pipeline(store).reached
        changed = bound_pipeline(
            store, config=api.EngineConfig(ordering="declaration"))
        changed.reached  # miss + re-persist under the same name
        name = pipeline_name(changed)
        assert store._path(name) != store._alt_path(
            name, reachable_fingerprint(
                to_g_string(changed.stg),
                api.EngineConfig(ordering="declaration")))
        # Both contents now serve warm, neither evicted the other.
        bound_pipeline(store).reached
        bound_pipeline(
            store,
            config=api.EngineConfig(ordering="declaration")).reached
        assert store.hits == 2

    def test_corrupt_primary_is_reclaimed_not_overflowed(self, store):
        cold = bound_pipeline(store)
        cold.reached
        path = store._path(pipeline_name(cold))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("bddstore 2\nmeta {not json\ngarbage\n")
        recovered = bound_pipeline(store)
        with pytest.warns(BDDStoreWarning, match="corrupt BDD-store"):
            recovered.reached
        # The unreadable primary was overwritten in place, no overflow
        # file appeared, and the entry serves warm again.
        assert sorted(entry for entry in os.listdir(store.directory)
                      if entry.endswith(".bdd")) == [
            f"{pipeline_name(cold)}.bdd"]
        bound_pipeline(store).reached
        assert store.hits == 1


class TestWarmStart:
    def test_smaller_scale_warm_starts_the_next(self, store):
        small = bound_pipeline(store, scale=5)
        small.reached
        large = bound_pipeline(store, scale=6)
        large.reached
        assert store.warm_starts == 1
        assert large.traversal_stats.iterations > 0  # still a real run

    def test_warm_start_does_not_change_the_result(self, store):
        plain = fresh_pipeline(scale=6)
        plain_reached = plain.reached
        bound_pipeline(store, scale=5).reached
        warm = bound_pipeline(store, scale=6)
        warm.reached
        care = plain.encoding.all_variables
        assert (warm.reached.sat_count(care)
                == plain_reached.sat_count(care))
        stats = warm.traversal_stats.to_dict()
        plain_stats = plain.traversal_stats.to_dict()
        for volatile in ("wall_time_s", "peak_live_nodes",
                         "cache_lookups", "cache_hits"):
            stats.pop(volatile)
            plain_stats.pop(volatile)
        assert stats == plain_stats

    def test_unrelated_names_do_not_warm_start(self, store):
        manager_pipeline = fresh_pipeline(scale=4)
        assert store.warm_start("no-scale-suffix",
                                manager_pipeline.encoding.manager) is None
        assert store.warm_starts == 0


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
        assert os.listdir(store.directory) == [f"{name}.bdd"]
        assert store.find("f" * 64) is not None


def pipeline_name(pipeline) -> str:
    return pipeline.stg.name
