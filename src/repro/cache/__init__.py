"""Persistent BDD caching: reachable-set reuse across runs and edits.

This package hosts the :class:`~repro.cache.bddstore.BDDStore` -- the
sibling of the sweep runner's result cache that persists each reachable
BDD as one ``<fingerprint>.bdd`` file, named by its
:func:`reachable_fingerprint` -- and :func:`bind_pipeline`, which wires
a store into a :class:`~repro.core.pipeline.VerificationPipeline` so
the traversal is skipped on a hit, seeded from a named base on a delta
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

import functools
from typing import Mapping, Optional, Tuple

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
    "canonical_g_text",
    "reachable_fingerprint",
    "stored_g_text",
]


def stored_g_text(stg, initial_values: Optional[Mapping[str, bool]]) -> str:
    """The ``.g`` text a run of ``stg`` is stored under.

    The pipeline verifies a copy of ``stg`` with the config's
    ``initial_values`` overrides applied, and :func:`bind_pipeline`
    keys the entry by that copy written back, so a base reference must
    be fingerprinted through the same text.  Only overrides of declared
    signals that change a value are applied; an STG that already
    carries them (the pipeline's own) is written as it is.
    """
    from repro.stg.writer import to_g_string

    changes = {signal: value
               for signal, value in (initial_values or {}).items()
               if stg.has_signal(signal)
               and stg.initial_value(signal) != value}
    if changes:
        stg = stg.copy()
        stg.set_initial_values(changes)
    return to_g_string(stg)


@functools.lru_cache(maxsize=256)
def canonical_g_text(name: str, g_text: str,
                     initial_values: Tuple[Tuple[str, bool], ...]) -> str:
    """The ``.g`` text a task named ``name`` is stored under.

    A task is verified as ``parse_g(g_text, name=name)`` under the
    config's ``initial_values`` overrides (a sorted tuple of pairs, as
    :class:`~repro.api.config.EngineConfig` holds them), and
    :func:`bind_pipeline` keys its entry by :func:`stored_g_text` of
    that STG, which differs from ``g_text`` whenever the source is not
    already in the writer's form.  So a reference to a task by name
    must be fingerprinted through this text, not the raw one.
    Memoised: a daemon in an edit loop resolves the same base on every
    request.
    """
    from repro.stg.parser import parse_g

    return stored_g_text(parse_g(g_text, name=name), dict(initial_values))


def bind_pipeline(pipeline, store: BDDStore, name: str, config) -> str:
    """Attach a :class:`BDDStore` to a pipeline's reachability hooks.

    ``config`` is the run's :class:`~repro.api.config.EngineConfig`.
    Returns the reachability fingerprint of the pipeline's
    :func:`stored_g_text`, which keys the store entry (for a task given
    as text, the text :func:`canonical_g_text` computes).

    When ``config.base_fingerprint`` is set and the exact lookup
    misses, the provider asks :func:`repro.delta.warmstart.apply_base`
    for the strongest sound reuse of the named base entry (adopting it
    outright on structural identity, seeding the traversal for monotone
    edits); any other miss traverses cold.
    """
    g_text = stored_g_text(pipeline.stg, config.initial_values_dict)
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
