"""Turn a stored base reachable set into a traversal warm-start.

:func:`apply_base` is called by the BDD-cache provider
(:func:`repro.cache.bind_pipeline`) when the engine config carries a
:attr:`~repro.api.config.EngineConfig.base_fingerprint` and the exact
fingerprint of the request itself missed.  It locates the base entry,
diffs the stored canonical ``.g`` text against the pipeline's STG,
classifies the edit (:func:`repro.delta.classify.classify_delta`) and
applies the strongest sound reuse:

``hit``
    The edit is structurally identical to the base (a rename, a
    re-check under a new task name): adopt the stored reachable set
    outright -- no traversal at all.
``seed``
    Strictly monotone edit: extend the base states with the added
    variables at their initial values (every such state is genuinely
    reachable in the edited net via the base's own firing sequences)
    and hand the result to the traversal as its starting set.
``cold``
    Anything else, including a base entry stored without its
    specification text: no reuse.

The seeding contract (analyzer rule RA204): this module writes only the
pipeline's ``seed_reached`` / ``seed_transitions`` / ``seed_closed`` /
``delta_info`` attributes.  Verdicts, reports and the
canonical fixpoint are untouched -- a seeded run's stable JSON is
byte-identical to a cold run's, which the parity suite and the sweep
gate's delta leg enforce.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.bdd.function import Function
from repro.core.encoding import SymbolicEncoding
from repro.core.stats import TraversalStats
from repro.delta.classify import TIER_COLD, classify_delta
from repro.delta.diff import diff_stg
from repro.stg.parser import parse_g
from repro.stg.stg import STG

#: Pseudo-tier recorded when the base is structurally identical and the
#: stored reachable set is adopted wholesale (no traversal at all).
TIER_HIT = "hit"


@functools.lru_cache(maxsize=32)
def base_stg(g_text: str) -> STG:
    """The base STG stored with ``g_text``, parsed once per process.

    An editor loop re-checks every edit against the same base, so the
    parse is memoised like :func:`repro.cache.canonical_g_text`.  Every
    re-check shares the returned object: callers only read it (as
    :func:`~repro.delta.diff.diff_stg` does).
    """
    return parse_g(g_text)


def extend_to_encoding(encoding: SymbolicEncoding, base_reached: Function,
                       base_variables: Sequence[str]) -> Function:
    """Lift a base reachable set into the edited encoding's state space.

    Every variable of the edited encoding that the base did not know is
    constrained to its value in the edited initial state, read off the
    STG: the resulting states are exactly the base states "carried
    along" unchanged by the base's firing sequences, so all of them are
    reachable in the edited net.  The edited initial state is united in
    for the degenerate case of an empty base set.  The union is not
    skipped when the lifted set holds the initial state already: testing
    that costs as many lookups as the union, and the traversal's own
    ``initial | seed`` then finds the union in the operation cache.
    """
    stg = encoding.stg
    values = encoding.state_literals(stg.initial_marking(),
                                     stg.initial_state_vector())
    known = set(base_variables)
    lifted = base_reached & encoding.manager.cube(
        {name: value for name, value in values.items()
         if name not in known})
    return lifted | encoding.initial_state()


def apply_base(pipeline, store, base_fingerprint: str
               ) -> Optional[Tuple[Function, TraversalStats]]:
    """Resolve ``base_fingerprint`` against ``store`` and warm the pipeline.

    Returns ``(reached, stats)`` only for the ``hit`` tier (structural
    identity -- the provider then skips the traversal entirely);
    otherwise configures the pipeline's seed in place (seed tier only)
    and returns ``None`` so the traversal runs.  Always records the
    classification outcome on ``pipeline.delta_info``.
    """
    with obs.span("delta", base=base_fingerprint[:12]) as span:
        outcome = _apply_base(pipeline, store, base_fingerprint)
        info = pipeline.delta_info or {}
        span.annotate(tier=info.get("tier"), closed=info.get("closed"))
        return outcome


def _apply_base(pipeline, store, base_fingerprint: str
                ) -> Optional[Tuple[Function, TraversalStats]]:
    info = {"base": base_fingerprint, "tier": TIER_COLD, "closed": False,
            "reasons": [], "summary": None}
    pipeline.delta_info = info

    found = store.find(base_fingerprint)
    if found is None:
        # find warned if the file is there: name it in the provenance.
        store.delta_colds += 1
        info["reasons"] = [
            f"the base's stored entry {base_fingerprint}.bdd is corrupt"
            if base_fingerprint in store
            else "no stored entry matches the base fingerprint"]
        return None
    path, meta = found

    base_g_text = meta.get("g_text")
    if not isinstance(base_g_text, str) or not base_g_text:
        # Only BDDStore.put(..., g_text=None) writes such an entry: with
        # no base text there is nothing to diff against.
        store.delta_colds += 1
        info["reasons"] = ["base entry stores no specification text"]
        return None

    with obs.span("delta.parse_base"):
        base = base_stg(base_g_text)
    with obs.span("delta.classify"):
        delta = diff_stg(base, pipeline.stg)
        classification = classify_delta(delta, pipeline.stg)
    info["tier"] = classification.tier
    info["closed"] = classification.closed
    info["reasons"] = list(classification.reasons)
    info["summary"] = delta.summary()

    if classification.tier == TIER_COLD:
        store.delta_colds += 1
        return None

    loaded = store.load_entry(path, pipeline.encoding.manager)
    if loaded is None:
        store.delta_colds += 1
        info["tier"] = TIER_COLD
        info["closed"] = False
        info["reasons"].append("stored base variables are incompatible "
                               "with the edited encoding")
        return None
    base_reached, base_variables = loaded

    if delta.identical:
        # Same structure, same fingerprint material except the text
        # itself (e.g. a model rename): the stored set IS the reachable
        # set.  The canonical size/state fields are recomputed from the
        # loaded BDD; the path-dependent counters stay the base's and
        # are volatile in every stable view.
        stats = TraversalStats.from_dict(meta.get("stats") or {})
        stats.num_variables = len(pipeline.encoding.all_variables)
        stats.num_states = pipeline.encoding.count_states(base_reached)
        stats.final_nodes = base_reached.size()
        info["tier"] = TIER_HIT
        store.delta_hits += 1
        obs.event("delta-hit", base=base_fingerprint[:12])
        return base_reached, stats

    seed = extend_to_encoding(pipeline.encoding, base_reached,
                              base_variables)
    pipeline.seed_reached = seed
    pipeline.seed_transitions = list(delta.added_transitions)
    pipeline.seed_closed = classification.closed
    info["seed_nodes"] = seed.size()
    store.delta_seeds += 1
    return None
