"""Reproduction of "Checking Signal Transition Graph Implementability by
Symbolic BDD Traversal" (Kondratyev, Cortadella, Kishinevsky, Pastor, Roig,
Yakovlev -- ED&TC 1995).

Packages
--------

* :mod:`repro.api` -- **the one public verification entry point**: the
  :func:`~repro.api.facade.verify` facade, the typed
  :class:`~repro.api.config.EngineConfig` and the table of property
  checks.  Its engine choice (``symbolic`` or ``explicit``) and check
  selection reach the two engines of :mod:`repro.engines`, its back
  end.
* :mod:`repro.corpus` -- the benchmark corpus: named ``.g`` specifications
  with expected-verdict metadata.
* :mod:`repro.runner` -- the parallel, sharded, cached sweep runner behind
  the ``batch-check`` CLI mode.
* :mod:`repro.bdd` -- the ROBDD engine used as symbolic substrate.
* :mod:`repro.petri` -- Petri nets, markings, explicit reachability.
* :mod:`repro.stg` -- Signal Transition Graphs, the ``.g`` file format and
  the scalable benchmark generators.
* :mod:`repro.sg` -- explicit (full) State Graphs and explicit property
  checks; the enumeration baseline and testing oracle.
* :mod:`repro.core` -- the paper's contribution: symbolic traversal and
  symbolic implementability checks (consistency, persistency, CSC,
  CSC-reducibility, fake conflicts).
* :mod:`repro.synthesis` -- derivation of next-state (complex-gate) logic
  for specifications that satisfy CSC.

A typical use::

    from repro import EngineConfig, verify
    from repro.stg.generators import muller_pipeline

    report = verify(muller_pipeline(8))
    print(report.summary())

    report = verify(muller_pipeline(8), EngineConfig(engine="explicit"))
    report = verify(muller_pipeline(8), checks=("csc", "persistency"))
"""

from repro._version import __version__
from repro.api import (
    ApiError,
    EngineConfig,
    available_checks,
    run,
    verify,
)
from repro.report import ImplementabilityClass, ImplementabilityReport

__all__ = [
    "ApiError",
    "EngineConfig",
    "ImplementabilityClass",
    "ImplementabilityReport",
    "__version__",
    "available_checks",
    "run",
    "verify",
]
