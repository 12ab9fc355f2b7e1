"""The single public verification entry point.

Every consumer -- the CLI, the sweep runner, the corpus batch-check,
synthesis drivers, external tooling -- verifies through this facade::

    from repro.api import EngineConfig, verify

    report = verify(stg)                                   # defaults
    report = verify(stg, EngineConfig(engine="explicit"))
    report = verify(stg, checks=("csc", "persistency"))    # a subset

Incremental re-verification (:mod:`repro.delta`) is part of the same
front door: with a persistent BDD cache configured, ``base=`` names the
entry to warm-start from -- an STG, a benchmark-corpus entry name or a
raw reachability fingerprint (see :func:`resolve_base`) -- and the
returned report carries a ``delta`` provenance block saying which reuse
tier applied::

    config = EngineConfig(bdd_cache_dir=".repro-bdd-cache")
    verify(base_stg, config)                               # populate
    report = verify(edited_stg, config, base=base_stg)     # re-check
    report.delta["tier"]                                   # e.g. "seed"

:func:`verify` returns the :class:`~repro.report.ImplementabilityReport`;
:func:`run` additionally returns the engine intermediates (traversal
statistics, the symbolic pipeline) for consumers that keep working after
the check.  Engine choice, check selection, arbitration places and the
base reference are all validated here, so a bad request fails fast with
a clear :class:`~repro.api.errors.ApiError` instead of silently
misbehaving deep inside an engine.

:func:`run` builds the engine's check context from the config itself --
a :class:`~repro.core.pipeline.VerificationPipeline` or an
:class:`~repro.sg.checker.ExplicitVerification` -- and runs the selected
checks over it; the engine packages load on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Union)

from repro.api.checks import resolve_checks, run_checks
from repro.api.config import EngineConfig
from repro.api.errors import ApiError
from repro.report import ImplementabilityReport
from repro.stg.stg import STG
from repro.utils.registry import suggest
from repro.utils.timing import deadline_from_timeout

if TYPE_CHECKING:  # pragma: no cover - hints only, imported lazily
    from repro.core.pipeline import VerificationPipeline

_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


@dataclass
class EngineRun:
    """Everything one engine run produced.

    ``report`` is the verdict object every consumer reads;
    ``traversal`` carries the symbolic traversal statistics (``None`` on
    the explicit engine, or when no check needed the traversal) and
    ``pipeline`` exposes the symbolic intermediates (encoding, image,
    reachable BDD) for consumers that keep working after the check --
    synthesis, liveness extras, witnesses -- without re-running the
    traversal.
    """

    report: ImplementabilityReport
    traversal: Optional[Dict[str, int]] = None
    pipeline: Optional["VerificationPipeline"] = None


def validate_arbitration_places(stg: STG,
                                places: Iterable[str]) -> None:
    """Reject arbitration places that do not exist on the specification.

    Both engines used to treat an unknown arbitration place as a silent
    no-op -- the persistency check simply never matched it, quietly
    turning real violations into accepted "arbitration".  Unknown places
    are now a hard :class:`ApiError` naming the close matches.
    """
    known = set(stg.places)
    unknown = [place for place in places if place not in known]
    if unknown:
        shown = ", ".join(repr(place) for place in unknown)
        raise ApiError(
            f"unknown arbitration place(s) {shown} on STG {stg.name!r}"
            f"{suggest(unknown[0], known)}")


def resolve_base(base: Union[str, STG], config: EngineConfig,
                 tasks: Optional[Mapping[str, str]] = None) -> str:
    """Turn a ``base=`` reference into the key its store entry has.

    Accepts, in order of preference:

    * a 64-char lowercase hex string -- taken as the fingerprint itself
      (what the serve daemon's ``queued`` events and
      :func:`repro.cache.reachable_fingerprint` hand out);
    * an :class:`STG` -- fingerprinted from its canonical ``.g`` text;
    * a name in ``tasks``, a table of task name -> ``.g`` text the
      caller has verified (the serve daemon passes the tasks it built);
    * a benchmark-corpus entry name.

    An STG or a name is fingerprinted through the text its run was
    stored under (:func:`repro.cache.stored_g_text`, memoised per name
    by :func:`repro.cache.canonical_g_text`), with ``config``'s
    initial-value overrides applied, under ``config`` (ordering,
    initial values): the result names *the entry this very config
    would have written*.  Anything else raises :class:`ApiError`.
    """
    from repro.cache import (
        canonical_g_text,
        reachable_fingerprint,
        stored_g_text,
    )

    if isinstance(base, STG):
        return reachable_fingerprint(
            stored_g_text(base, config.initial_values_dict), config)
    base = str(base)
    if _FINGERPRINT.fullmatch(base):
        return base
    g_text = (tasks or {}).get(base)
    if g_text is None:
        from repro import corpus

        try:
            g_text = corpus.entry(base).g_text
        except KeyError:
            raise ApiError(
                f"base {base!r} is neither a reachability fingerprint "
                f"nor a known task or benchmark-corpus entry name"
            ) from None
    return reachable_fingerprint(
        canonical_g_text(base, g_text, config.initial_values or ()), config)


def run(stg: STG, config: Optional[EngineConfig] = None,
        checks: Union[None, str, Iterable[str]] = None,
        base: Union[None, str, STG] = None) -> EngineRun:
    """Verify ``stg`` and return the full :class:`EngineRun` outcome.

    ``config`` defaults to ``EngineConfig()`` (symbolic engine, force
    ordering).  ``checks`` selects the property checks to run: ``None``
    for the default set, :data:`repro.api.checks.ALL` for every check,
    or an iterable / comma-separated string of check names (see
    :func:`repro.api.checks.available_checks`).

    ``base`` requests a delta warm-start from a previously cached entry
    (see :func:`resolve_base` for the accepted spellings and the module
    docstring for the editor-loop pattern); it requires a configured
    ``bdd_cache_dir`` and the symbolic engine.  The base only seeds the
    traversal -- verdicts are byte-identical to a cold run -- and the
    report's ``delta`` block records the classification outcome.
    """
    if config is None:
        config = EngineConfig()
    if base is not None:
        if not config.bdd_cache_dir:
            raise ApiError(
                "base= requires a persistent BDD cache: set "
                "EngineConfig.bdd_cache_dir (the store the base entry "
                "lives in)")
        if config.engine != "symbolic":
            raise ApiError(
                f"base= requires the symbolic engine (delta warm-starts "
                f"seed the BDD traversal), got engine={config.engine!r}")
        config = config.with_overrides(
            base_fingerprint=resolve_base(base, config))
    validate_arbitration_places(stg, config.arbitration_places)
    selected = resolve_checks(checks)
    if config.engine == "symbolic":
        return _run_symbolic(stg, config, selected)
    return _run_explicit(stg, config, selected)


def _run_symbolic(stg: STG, config: EngineConfig,
                  checks: List[str]) -> EngineRun:
    """The paper's symbolic BDD traversal (:mod:`repro.core`)."""
    from repro.core.pipeline import VerificationPipeline

    pipeline = VerificationPipeline(
        stg,
        arbitration_places=config.arbitration_places,
        ordering=config.ordering,
        traversal_strategy=config.traversal_strategy,
        initial_values=config.initial_values_dict,
        commutativity_fallback_states=config.commutativity_fallback_states,
        deadline=deadline_from_timeout(config.timeout))
    if config.bdd_cache_dir:
        from repro.cache import BDDStore, bind_pipeline

        # One store object per cache directory, process-wide: the serve
        # daemon and in-process sweeps share it, so its effectiveness
        # counters aggregate across runs.
        bind_pipeline(pipeline, BDDStore.shared(config.bdd_cache_dir),
                      name=stg.name, config=config)
    report = run_checks(pipeline, checks, "symbolic")
    if pipeline.delta_info is not None:  # a base was tried
        report.delta = dict(pipeline.delta_info)
    outcome = EngineRun(report=report, pipeline=pipeline)
    if pipeline.traversal_ran:
        stats = pipeline.traversal_stats
        report.num_states = stats.num_states
        report.bdd_peak_nodes = stats.peak_nodes
        report.bdd_final_nodes = stats.final_nodes
        report.bdd_variables = stats.num_variables
        outcome.traversal = stats.to_dict()
    return outcome


def _run_explicit(stg: STG, config: EngineConfig,
                  checks: List[str]) -> EngineRun:
    """The enumeration baseline and testing oracle (:mod:`repro.sg`)."""
    from repro.sg.checker import ExplicitVerification

    context = ExplicitVerification(
        stg,
        initial_values=config.initial_values_dict,
        arbitration_places=config.arbitration_places,
        max_states=config.max_states,
        deadline=deadline_from_timeout(config.timeout))
    report = run_checks(context, checks, "explicit")
    if context.graph_built:
        report.num_states = context.graph.num_states
    return EngineRun(report=report)


def verify(stg: STG, config: Optional[EngineConfig] = None,
           checks: Union[None, str, Iterable[str]] = None,
           base: Union[None, str, STG] = None) -> ImplementabilityReport:
    """Verify ``stg`` and return the :class:`ImplementabilityReport`.

    The facade every consumer should call; see :func:`run` for the
    parameters (including the incremental ``base=``) and for access to
    the engine intermediates.
    """
    return run(stg, config, checks=checks, base=base).report
