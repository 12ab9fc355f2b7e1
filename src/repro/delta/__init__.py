"""Incremental delta verification: structural diffs and warm-start seeds.

The interactive editor loop -- tweak an STG, re-verify, repeat -- is the
workload the ROADMAP's million-user scenario is built around, and before
this package every edit recomputed the reachable state space from
scratch (the :class:`~repro.cache.bddstore.BDDStore` fingerprint is
exact canonical ``.g`` text).  ``repro.delta`` closes that gap:

* :func:`diff_stg` computes the structural difference between a *base*
  STG and an *edited* one (added/removed transitions, places, arcs and
  signals, plus initial-marking/value changes) as an :class:`STGDelta`;
* :func:`classify_delta` sorts a delta into one of two reuse tiers
  (:data:`TIER_SEED` / :data:`TIER_COLD`) by the monotone-compatibility
  rules documented on the classifier;
* :mod:`repro.delta.warmstart` turns a stored base reachable set into a
  **traversal seed** for monotone edits -- the base states extended with
  the new variables at their initial values are all genuinely reachable
  in the edited net, so the traversal starts from them instead of from
  the single initial state -- and runs every other edit cold.

The seed never touches verdicts: it only changes *where the fixpoint
iteration starts*, the fixpoint itself is the same canonical reachable
set, and the parity suite plus the sweep gate's delta leg prove stable
JSON is byte-identical to a cold run (analyzer rule RA204 statically
pins that this package stays on the seeding surface).

The public entry points are ``repro.api.verify(stg, base=...)`` and the
serve protocol's ``"base"`` request field; both route through
:attr:`repro.api.config.EngineConfig.base_fingerprint`.
"""

from __future__ import annotations

from repro.delta.classify import (
    TIER_COLD,
    TIER_SEED,
    TIERS,
    DeltaClassification,
    classify_delta,
)
from repro.delta.diff import STGDelta, diff_stg

__all__ = [
    "DeltaClassification",
    "STGDelta",
    "TIER_COLD",
    "TIER_SEED",
    "TIERS",
    "classify_delta",
    "diff_stg",
]
