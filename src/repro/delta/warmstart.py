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

from typing import Optional, Sequence, Tuple

from repro import obs
from repro.bdd.function import Function
from repro.core.encoding import SymbolicEncoding
from repro.core.stats import TraversalStats
from repro.delta.classify import TIER_COLD, classify_delta
from repro.delta.diff import diff_stg
from repro.stg.parser import parse_g

#: Pseudo-tier recorded when the base is structurally identical and the
#: stored reachable set is adopted wholesale (no traversal at all).
TIER_HIT = "hit"


def extend_to_encoding(encoding: SymbolicEncoding, base_reached: Function,
                       base_variables: Sequence[str]) -> Function:
    """Lift a base reachable set into the edited encoding's state space.

    Every variable of the edited encoding that the base did not know is
    constrained to its value in the edited initial state: the resulting
    states are exactly the base states "carried along" unchanged by the
    base's firing sequences, so all of them are reachable in the edited
    net.  The edited initial state is united in for the degenerate case
    of an empty base set.
    """
    manager = encoding.manager
    initial = encoding.initial_state()
    known = set(base_variables)
    new_variables = [name for name in encoding.all_variables
                     if name not in known]
    literals = {}
    for name in new_variables:
        literals[name] = not (initial & manager.var(name)).is_false()
    cube = manager.cube(literals)
    return (base_reached & cube) | initial


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
        store.delta_colds += 1
        info["reasons"] = ["no stored entry matches the base fingerprint"]
        return None
    path, meta = found

    base_g_text = meta.get("g_text")
    if not isinstance(base_g_text, str) or not base_g_text:
        # Only BDDStore.put(..., g_text=None) writes such an entry: with
        # no base text there is nothing to diff against.
        store.delta_colds += 1
        info["reasons"] = ["base entry stores no specification text"]
        return None

    base = parse_g(base_g_text)
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
