"""Persistent BDD caching: reachable-set reuse across runs and edits.

This package hosts the :class:`~repro.cache.bddstore.BDDStore` -- the
sibling of the sweep runner's result cache that persists the reachable
BDD per specification -- and :func:`bind_pipeline`, which wires a store
into a :class:`~repro.core.pipeline.VerificationPipeline` so the
traversal is skipped on a hit, seeded from a named base on a delta
re-check, and persisted after a cold run::

    from repro.cache import BDDStore, bind_pipeline

    store = BDDStore(".repro-bdd-cache")
    pipeline = VerificationPipeline(stg)
    bind_pipeline(pipeline, store, name=stg.name, config=config)
    pipeline.csc()                  # traversal served from the store

The facade binds it for you: ``EngineConfig(bdd_cache_dir=DIR)``, which
is what the CLI's ``--bdd-cache DIR`` sets (both on single checks and on
``batch-check`` sweeps, where every worker verifies through the facade).
"""

from __future__ import annotations

from repro.cache.bddstore import (
    BDD_SCHEMA_VERSION,
    BDDStore,
    BDDStoreWarning,
    reachable_fingerprint,
)

__all__ = [
    "BDD_SCHEMA_VERSION",
    "BDDStore",
    "BDDStoreWarning",
    "bind_pipeline",
    "reachable_fingerprint",
]


def bind_pipeline(pipeline, store: BDDStore, name: str, config) -> str:
    """Attach a :class:`BDDStore` to a pipeline's reachability hooks.

    ``config`` is the run's :class:`~repro.api.config.EngineConfig`.
    Returns the reachability fingerprint of the pipeline's canonical
    ``.g`` text, which keys the store entry.

    When ``config.base_fingerprint`` is set and the exact lookup
    misses, the provider asks :func:`repro.delta.warmstart.apply_base`
    for the strongest sound reuse of the named base entry (adopting it
    outright on structural identity, seeding the traversal for monotone
    edits); any other miss traverses cold.
    """
    from repro.stg.writer import to_g_string

    g_text = to_g_string(pipeline.stg)
    fingerprint = reachable_fingerprint(g_text, config)
    base_fingerprint = getattr(config, "base_fingerprint", None)

    def provider(p):
        hit = store.lookup(name, fingerprint, p.encoding.manager)
        if hit is not None:
            return hit
        if base_fingerprint:
            from repro.delta.warmstart import apply_base

            return apply_base(p, store, base_fingerprint)
        return None

    def consumer(p, reached, stats):
        store.put(name, fingerprint, reached, stats, g_text=g_text)

    pipeline.reached_provider = provider
    pipeline.reached_consumer = consumer
    return fingerprint
