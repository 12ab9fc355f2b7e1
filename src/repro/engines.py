"""The two verification engines behind :func:`repro.api.run`.

The paper's pipeline exists in two implementations -- the symbolic BDD
engine (:mod:`repro.core`) and the explicit enumeration oracle
(:mod:`repro.sg`) -- and both run every property check of
:mod:`repro.api.checks`.  :data:`ENGINES` is the fixed name -> engine
table, built once at import; :func:`get` looks a name up and raises
:class:`~repro.api.errors.UnknownEngineError` with a did-you-mean
suggestion for an unknown one.

The module is the facade's back end, not an entry point: the CLI, the
sweep runner and the serve daemon all verify through
:func:`repro.api.run`, which dispatches here by
:attr:`~repro.api.config.EngineConfig.engine` name.  An engine's
``run(stg, config, checks)`` returns an :class:`EngineRun` and owns its
time budget: each engine turns ``config.timeout`` into the cooperative
deadline its loops check
(:func:`~repro.utils.timing.deadline_from_timeout`) as it starts, so
every front door -- the facade, the sweep worker, the daemon -- gets
the same budget from the one knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

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


class SymbolicEngine:
    """The paper's contribution: symbolic BDD traversal (:mod:`repro.core`)."""

    name = "symbolic"

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


#: The engines by name, symbolic first (the default).
ENGINES: Registry[Union[SymbolicEngine, ExplicitEngine]] = Registry(
    UnknownEngineError,
    [(engine.name, engine) for engine in (SymbolicEngine(),
                                          ExplicitEngine())])
get = ENGINES.get
