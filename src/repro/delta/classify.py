"""The monotone-compatibility classifier.

Given the structural delta of an edit, decide how much of the *base*
run's reachable set may soundly be reused:

:data:`TIER_SEED` (strictly monotone edits)
    The edit only adds structure **and** every added arc is incident to
    an added transition, so the pre- and post-sets of every surviving
    transition are exactly what they were in the base net.  Then every
    base-reachable marking, extended with the added places/signals at
    their initial values, is reachable in the edited net via the very
    same firing sequence -- the stored base reachable set (so extended)
    is a sound *traversal seed*.  Two sub-modes:

    * ``closed`` -- no added transition touches an existing place *or
      an existing signal*: new states differ from seeded ones only in
      the added variables, the old transitions cannot leave the seeded
      set, and the fixpoint iteration only needs to fire the *added*
      transitions (the fast path of the editor loop);
    * otherwise the added transitions feed states back into the old
      net, and the iteration sweeps the full transition list from the
      seeded frontier.

:data:`TIER_COLD` (anything else)
    Removals, renames (a removal plus an addition), initial-marking or
    initial-value changes, signal-kind changes: nothing about the base
    reachable set is trustworthy, run cold.  So is an addition that
    fails the arc rule: an arc between existing nodes changes an
    existing transition's environment, so base states may be
    unreachable or non-closed in the edited net and seeding would be
    unsound.

Every decision is recorded with human-readable ``reasons`` so the
``delta`` provenance block on reports and the serve metrics can say
*why* a re-check did or did not warm-start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.delta.diff import STGDelta
from repro.stg.stg import STG

TIER_SEED = "seed"
TIER_COLD = "cold"

#: The reuse tiers, strongest first.
TIERS = (TIER_SEED, TIER_COLD)


@dataclass(frozen=True)
class DeltaClassification:
    """Reuse tier of one edit, with the rules that decided it."""

    tier: str
    #: Seed tier only: the added transitions touch no existing place or
    #: signal, so the fixpoint closure may fire only the added
    #: transitions.
    closed: bool = False
    reasons: Tuple[str, ...] = ()


def classify_delta(delta: STGDelta, edited: STG) -> DeltaClassification:
    """Classify an edit's delta against the edited net.

    ``edited`` is needed to resolve the pre/post-sets of the added
    transitions (the delta alone does not know which arc endpoint is
    the transition).
    """
    reasons: List[str] = []
    _collect_non_additive_reasons(delta, reasons)
    if reasons:
        return DeltaClassification(tier=TIER_COLD, reasons=tuple(reasons))
    if delta.identical:
        return DeltaClassification(
            tier=TIER_SEED, closed=True,
            reasons=("structurally identical to the base",))

    added_transitions = set(delta.added_transitions)
    added_places = set(delta.added_places)
    for source, target in delta.added_arcs:
        transition = target if target in edited.transitions else source
        if transition not in added_transitions:
            reasons.append(
                f"added arc ({source} -> {target}) changes existing "
                f"transition {transition!r}; base states may not be "
                f"closed under it")
    if reasons:
        return DeltaClassification(tier=TIER_COLD, reasons=tuple(reasons))

    # Closed mode needs both conditions: an added transition touching an
    # existing place could mark it in ways only old transitions consume,
    # and one toggling an existing *signal* creates full states from
    # which old transitions (whose enabling depends on places alone)
    # reach codes the seed never saw -- either way the old transitions
    # must keep firing, i.e. the sweep must stay full-width.
    added_signals = set(delta.added_signals)
    closed = True
    for transition in delta.added_transitions:
        environment = (set(edited.net.preset_of_transition(transition))
                       | set(edited.net.postset_of_transition(transition)))
        if (not environment <= added_places
                or edited.signal_of(transition) not in added_signals):
            closed = False
            break
    reasons.append("monotone: additions only, every added arc incident "
                   "to an added transition")
    reasons.append("added transitions touch no existing place or signal"
                   if closed else
                   "added transitions touch existing places or signals; "
                   "full sweep from the seeded frontier")
    return DeltaClassification(tier=TIER_SEED, closed=closed,
                               reasons=tuple(reasons))


def _collect_non_additive_reasons(delta: STGDelta,
                                  reasons: List[str]) -> None:
    """Append one reason per non-additive aspect of the delta."""
    categories = (
        (delta.removed_signals, "removed signal(s)"),
        (delta.removed_transitions, "removed transition(s)"),
        (delta.removed_places, "removed place(s)"),
        (delta.removed_arcs, "removed arc(s)"),
        (delta.changed_markings, "changed initial marking of place(s)"),
        (delta.changed_initial_values,
         "changed initial value of signal(s)"),
        (delta.changed_signal_kinds, "changed kind of signal(s)"),
    )
    for items, label in categories:
        if items:
            shown = ", ".join(str(item) for item in items[:3])
            more = len(items) - 3
            if more > 0:
                shown += f", ... ({more} more)"
            reasons.append(f"{label}: {shown}")
