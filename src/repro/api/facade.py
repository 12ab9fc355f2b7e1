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
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Optional, Union

from repro.api.config import EngineConfig
from repro.api.errors import ApiError
from repro.engines import EngineRun
from repro.report import ImplementabilityReport
from repro.stg.stg import STG
from repro.utils.registry import suggest

_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


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

    A name is fingerprinted through the text the task was stored under
    (:func:`repro.cache.canonical_g_text`), under ``config`` (ordering,
    initial values): the result names *the entry this very config
    would have written*.  Anything else raises :class:`ApiError`.
    """
    from repro.cache import canonical_g_text, reachable_fingerprint

    if isinstance(base, STG):
        from repro.stg.writer import to_g_string

        return reachable_fingerprint(to_g_string(base), config)
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
    return reachable_fingerprint(canonical_g_text(base, g_text), config)


def run(stg: STG, config: Optional[EngineConfig] = None,
        checks: Union[None, str, Iterable[str]] = None,
        base: Union[None, str, STG] = None) -> EngineRun:
    """Verify ``stg`` and return the full :class:`EngineRun` outcome.

    ``config`` defaults to ``EngineConfig()`` (symbolic engine, force
    ordering).  ``checks`` selects the property checks to run: ``None``
    for the engine's default set, :data:`repro.api.checks.ALL` for every
    supported check, or an iterable / comma-separated string of check
    names (see :func:`repro.api.checks.available_checks`).

    ``base`` requests a delta warm-start from a previously cached entry
    (see :func:`resolve_base` for the accepted spellings and the module
    docstring for the editor-loop pattern); it requires a configured
    ``bdd_cache_dir`` and the symbolic engine.  The base only seeds the
    traversal -- verdicts are byte-identical to a cold run -- and the
    report's ``delta`` block records the classification outcome.
    """
    from repro import engines
    from repro.api.checks import resolve_checks

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
    engine = engines.get(config.engine)
    selected = resolve_checks(checks, engine=config.engine,
                              supported=engine.checks)
    outcome = engine.run(stg, config, selected)
    if config.base_fingerprint and outcome.pipeline is not None:
        info = getattr(outcome.pipeline, "delta_info", None)
        if info is not None:
            outcome.report.delta = dict(info)
    return outcome


def verify(stg: STG, config: Optional[EngineConfig] = None,
           checks: Union[None, str, Iterable[str]] = None,
           base: Union[None, str, STG] = None) -> ImplementabilityReport:
    """Verify ``stg`` and return the :class:`ImplementabilityReport`.

    The facade every consumer should call; see :func:`run` for the
    parameters (including the incremental ``base=``) and for access to
    the engine intermediates.
    """
    return run(stg, config, checks=checks, base=base).report
