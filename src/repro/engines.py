"""The verification-engine protocol and registry.

The paper's pipeline exists in two implementations -- the symbolic BDD
engine (:mod:`repro.core`) and the explicit enumeration oracle
(:mod:`repro.sg`).  This module gives them (and any future backend: a
hybrid engine, a remote one, ...) a single plug-in point::

    from repro import engines

    engines.available()                  # ["symbolic", "explicit", ...]
    engine = engines.get("symbolic")
    outcome = engine.run(stg, config, checks)

    engines.register("hybrid", MyHybridEngine())   # new backends plug in

Nothing outside this module hard-codes engine knowledge: the CLI, the
sweep runner and the corpus batch-check all go through
:func:`repro.api.run`, which dispatches here by
:attr:`~repro.api.config.EngineConfig.engine` name.  Adding a backend is
therefore one ``register`` call -- no CLI or runner changes.  The
registry is a :class:`~repro.utils.registry.Registry`; ``register``,
``unregister``, ``available`` and ``get`` are its bound methods, and
unknown names raise :class:`~repro.api.errors.UnknownEngineError` with
a did-you-mean suggestion.

An engine is anything matching the :class:`Engine` protocol: a ``name``,
the ``checks`` it supports (names from :mod:`repro.api.checks`), and a
``run(stg, config, checks)`` returning an :class:`EngineRun`.  A run
owns its time budget: the built-in engines turn ``config.timeout`` into
the cooperative deadline their loops check
(:func:`~repro.utils.timing.deadline_from_timeout`) as they start, so
every front door -- the facade, the sweep worker, the daemon -- gets
the same budget from the one knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.api.errors import UnknownEngineError
from repro.utils.registry import Registry
from repro.utils.timing import deadline_from_timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.api.config import EngineConfig
    from repro.core.pipeline import VerificationPipeline
    from repro.report import ImplementabilityReport
    from repro.stg.stg import STG


@dataclass
class EngineRun:
    """Everything one engine run produced.

    ``report`` is the verdict object every consumer reads;
    ``traversal`` carries the symbolic traversal statistics (``None`` on
    engines without a traversal) and ``pipeline`` exposes the symbolic
    intermediates (encoding, image, reachable BDD) for consumers that
    keep working after the check -- synthesis, liveness extras,
    witnesses -- without re-running the traversal.
    """

    report: "ImplementabilityReport"
    traversal: Optional[Dict[str, int]] = None
    pipeline: Optional["VerificationPipeline"] = None


@runtime_checkable
class Engine(Protocol):
    """The backend protocol: run selected checks on one specification."""

    name: str

    @property
    def checks(self) -> Sequence[str]:
        """Names of the property checks this engine implements."""
        ...  # pragma: no cover - protocol

    def run(self, stg: "STG", config: "EngineConfig",
            checks: Sequence[str]) -> EngineRun:
        """Verify ``stg`` under ``config`` running exactly ``checks``."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: Registry[Engine] = Registry(UnknownEngineError)
register = _REGISTRY.register
unregister = _REGISTRY.unregister
available = _REGISTRY.available
get = _REGISTRY.get


# ----------------------------------------------------------------------
# Built-in engines (adapters over repro.core / repro.sg)
# ----------------------------------------------------------------------
class SymbolicEngine:
    """The paper's contribution: symbolic BDD traversal (:mod:`repro.core`)."""

    name = "symbolic"

    @property
    def checks(self) -> List[str]:
        from repro.api.checks import supported_checks

        return supported_checks(self.name)

    def run(self, stg: "STG", config: "EngineConfig",
            checks: Sequence[str]) -> EngineRun:
        from repro.api.checks import run_checks
        from repro.core.pipeline import VerificationPipeline

        pipeline = VerificationPipeline(
            stg,
            arbitration_places=config.arbitration_places,
            ordering=config.ordering,
            traversal_strategy=config.traversal_strategy,
            initial_values=config.initial_values_dict,
            commutativity_fallback_states=config.
            commutativity_fallback_states,
            deadline=deadline_from_timeout(config.timeout))
        if config.bdd_cache_dir:
            from repro.cache import BDDStore, bind_pipeline

            # One store object per cache directory, process-wide: the
            # serve daemon and in-process sweeps share it, so its
            # effectiveness counters aggregate across runs.
            bind_pipeline(pipeline, BDDStore.shared(config.bdd_cache_dir),
                          name=stg.name, config=config)
        report = run_checks(pipeline, checks, self.name)
        if not pipeline.traversal_ran:
            return EngineRun(report=report, pipeline=pipeline)
        stats = pipeline.traversal_stats
        report.num_states = stats.num_states
        report.bdd_peak_nodes = stats.peak_nodes
        report.bdd_final_nodes = stats.final_nodes
        report.bdd_variables = stats.num_variables
        return EngineRun(report=report, traversal=stats.to_dict(),
                         pipeline=pipeline)


class ExplicitEngine:
    """The enumeration baseline and testing oracle (:mod:`repro.sg`)."""

    name = "explicit"

    @property
    def checks(self) -> List[str]:
        from repro.api.checks import supported_checks

        return supported_checks(self.name)

    def run(self, stg: "STG", config: "EngineConfig",
            checks: Sequence[str]) -> EngineRun:
        from repro.api.checks import run_checks
        from repro.sg.checker import ExplicitVerification

        context = ExplicitVerification(
            stg,
            initial_values=config.initial_values_dict,
            arbitration_places=config.arbitration_places,
            max_states=config.max_states,
            deadline=deadline_from_timeout(config.timeout))
        report = run_checks(context, checks, self.name)
        if context.graph_built:
            report.num_states = context.graph.num_states
        return EngineRun(report=report)


register("symbolic", SymbolicEngine())
register("explicit", ExplicitEngine())
