"""`repro.api` -- the public verification surface.

One stable, typed entry point for every consumer of the verification
pipeline (CLI, sweep runner, corpus batch-check, synthesis, external
tooling)::

    from repro.api import EngineConfig, verify

    report = verify(stg)                                    # defaults
    report = verify(stg, EngineConfig(engine="explicit",
                                      arbitration_places=("p_me",)))
    report = verify(stg, checks=("csc", "persistency"))     # a subset

The moving parts:

* :class:`EngineConfig` -- the one frozen, serialisable engine
  configuration (replaces per-engine constructor kwargs); its
  :meth:`~EngineConfig.to_dict` form is what workers receive, what cache
  fingerprints hash and what ``--json`` reports embed.
* the **checks** (:mod:`repro.api.checks`) -- the fixed table of the
  seven property checks, each named and selectable; both engines run
  every one.
* :func:`verify` / :func:`run` -- the facade: validation (unknown
  engines/checks/arbitration places raise :class:`ApiError` with
  did-you-mean suggestions), dispatch to the ``symbolic`` or
  ``explicit`` engine (:mod:`repro.engines`, the facade's back end),
  and -- via :func:`run` -- access to the engine intermediates for
  synthesis and liveness extras.
"""

from repro.api.checks import (
    ALL,
    CheckSpec,
    available_checks,
    default_checks,
    resolve_checks,
)
from repro.api.config import (
    EXECUTION_KNOB_FIELDS,
    TRAVERSAL_STRATEGIES,
    EngineConfig,
)
from repro.api.errors import ApiError, UnknownCheckError, UnknownEngineError
from repro.api.facade import run, validate_arbitration_places, verify
from repro.engines import EngineRun

__all__ = [
    "ALL",
    "ApiError",
    "CheckSpec",
    "EngineConfig",
    "EngineRun",
    "EXECUTION_KNOB_FIELDS",
    "TRAVERSAL_STRATEGIES",
    "UnknownCheckError",
    "UnknownEngineError",
    "available_checks",
    "default_checks",
    "resolve_checks",
    "run",
    "validate_arbitration_places",
    "verify",
]
