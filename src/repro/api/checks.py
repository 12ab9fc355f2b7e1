"""The pluggable property-check registry of the verification facade.

Every implementability property of the paper is a named, registered
check.  ``repro.api.verify(stg, config, checks=("csc", "persistency"))``
(and the CLI's ``--checks csc,persistency``) runs exactly the selected
subset over the engine's shared intermediates -- the symbolic pipeline's
reachable-state BDD or the explicit engine's state graph is still
computed once and shared, but properties nobody asked for are skipped.

A :class:`CheckSpec` carries metadata (timing phase, description, which
engines implement it, whether it is part of the default set) and an
optional generic ``apply`` callable.  The built-in engines implement the
built-in checks as methods on their verification context
(:class:`repro.core.pipeline.VerificationPipeline` /
:class:`repro.sg.checker.ExplicitVerification`); a third-party check
plugs in by registering a spec whose ``apply(context, report)`` works
against those contexts::

    from repro.api import register_check, CheckSpec

    register_check(CheckSpec(
        name="single_output",
        phase="extra",
        description="exactly one output signal",
        apply=lambda ctx, report: report.add_verdict(
            "single output", len(ctx.stg.outputs) == 1)))

Checks always run in registration order regardless of the order they
were selected in, so reports stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.errors import UnknownCheckError
from repro.report import ImplementabilityReport

#: Sentinel selecting every check the engine supports (the sweep runner
#: uses this so cached verdicts are always complete).
ALL = "all"

CheckApply = Callable[[object, object], None]  # (context, report) -> None


@dataclass(frozen=True)
class CheckSpec:
    """One registered property check.

    ``engines`` names the built-in engines implementing the check as a
    context method ``_check_<name>``; when ``apply`` is given the check
    additionally (or instead) runs on any engine via the generic
    callable.  ``in_default`` controls membership in the default
    selection (``checks=None``): the liveness extras are opt-in, exactly
    like the pre-facade behaviour.
    """

    name: str
    phase: str
    description: str
    engines: Tuple[str, ...] = ("symbolic", "explicit")
    in_default: bool = True
    apply: Optional[CheckApply] = None

    def supported_by(self, engine: str) -> bool:
        return self.apply is not None or engine in self.engines


CHECKS: Dict[str, CheckSpec] = {}


def register_check(spec: CheckSpec, replace: bool = False) -> CheckSpec:
    """Register a property check (``replace=True`` to override)."""
    if spec.name in CHECKS and not replace:
        raise ValueError(f"duplicate check {spec.name!r}")
    CHECKS[spec.name] = spec
    return spec


def unregister_check(name: str) -> None:
    """Remove a registered check (mainly for tests and plug-in teardown)."""
    CHECKS.pop(name, None)


def available_checks() -> List[str]:
    """Every registered check name, in canonical (registration) order."""
    return list(CHECKS)


def default_checks(engine: str = "symbolic") -> List[str]:
    """The default selection for ``engine`` (every in-default check)."""
    return [name for name, spec in CHECKS.items()
            if spec.in_default and spec.supported_by(engine)]


def supported_checks(engine: str) -> List[str]:
    """Every check the given built-in engine implements."""
    return [name for name, spec in CHECKS.items()
            if spec.supported_by(engine)]


def resolve_checks(checks: Union[None, str, Iterable[str]],
                   engine: str = "symbolic",
                   supported: Optional[Iterable[str]] = None) -> List[str]:
    """Validate and canonicalise a check selection for ``engine``.

    ``None`` selects the default set, :data:`ALL` every supported check;
    an iterable (or a comma-separated string, as on the CLI) is validated
    name by name: unknown names raise :class:`UnknownCheckError` with a
    did-you-mean suggestion, checks the engine does not implement raise
    :class:`UnknownCheckError` naming the engine.  ``supported``
    overrides the supported set (custom engines advertise their own via
    ``Engine.checks``).  The result is duplicate-free and in canonical
    registry order.
    """
    supported = list(supported_checks(engine) if supported is None
                     else supported)
    if checks is None:
        return [name for name in supported
                if name in CHECKS and CHECKS[name].in_default]
    if checks == ALL:
        return list(supported)
    if isinstance(checks, str):
        checks = [part.strip() for part in checks.split(",") if part.strip()]
    requested = list(checks)
    for name in requested:
        if name not in CHECKS:
            raise UnknownCheckError(name, available_checks())
        if name not in supported:
            raise UnknownCheckError(
                name, supported,
                message=f"check {name!r} is not supported by the "
                        f"{engine!r} engine (supported: "
                        f"{', '.join(supported)})")
    return [name for name in CHECKS if name in set(requested)]


# ----------------------------------------------------------------------
# Engine-side execution (shared by every engine context)
# ----------------------------------------------------------------------
def run_checks(context: object, checks: Sequence[str],
               engine: str) -> ImplementabilityReport:
    """The one check loop: apply ``checks`` to ``context``, return the report.

    ``checks`` is a resolved selection (:func:`resolve_checks`);
    ``context`` is the engine's verification context, providing ``stg``
    and ``manager`` -- the BDD manager whose cache deltas each check span
    records, read before every check because the symbolic encoding only
    exists once the first check built it (``None`` without BDDs).  A
    phase's entry in ``report.timings`` is the sum of its checks' span
    durations, so report timings and traces cannot disagree.
    """
    from repro import obs  # lazy: keeps ``import repro.api`` light

    stg = context.stg
    sizes = stg.statistics()
    report = ImplementabilityReport(
        stg_name=stg.name, method=engine, num_places=sizes["places"],
        num_transitions=sizes["transitions"], num_signals=sizes["signals"])
    for name in checks:
        spec = CHECKS[name]
        with obs.timed("check", manager=context.manager, check=name,
                       phase=spec.phase) as span:
            apply_check(context, spec, report, engine)
        report.timings[spec.phase] = (report.timings.get(spec.phase, 0.0)
                                      + span.duration_s)
    return report


def apply_check(context: object, spec: CheckSpec, report: object,
                engine: str) -> None:
    """Run one check against an engine context.

    A spec's generic ``apply`` takes precedence -- that is what makes
    ``register_check(..., replace=True)`` actually override a built-in
    check; without one, the context's bound ``_check_<name>`` method
    runs.  Both built-in engines dispatch through here, so the
    preference order can never diverge between them.
    """
    if spec.apply is not None:
        spec.apply(context, report)
        return
    method = getattr(context, f"_check_{spec.name}", None)
    if method is None:  # pragma: no cover - resolve_checks filters these
        raise ValueError(
            f"check {spec.name!r} has no {engine} implementation")
    method(report)


# ----------------------------------------------------------------------
# The built-in checks (the paper's Sections 5.1-5.4 plus liveness)
# ----------------------------------------------------------------------
register_check(CheckSpec(
    name="consistency",
    phase="T+C",
    description="boundedness and consistent state assignment along the "
                "reachable states (Section 5.1)"))
register_check(CheckSpec(
    name="safeness",
    phase="T+C",
    description="1-boundedness of every place (Section 5.1)"))
register_check(CheckSpec(
    name="persistency",
    phase="NI-p",
    description="non-input signal and transition persistency "
                "(Figure 6, arbitration places tolerated)"))
register_check(CheckSpec(
    name="fake_conflicts",
    phase="NI-p",
    description="freedom from fake (non-behavioural) conflicts "
                "(Section 5.4)"))
register_check(CheckSpec(
    name="csc",
    phase="CSC",
    description="Complete and Unique State Coding via excitation/"
                "quiescent regions (Section 5.3)"))
register_check(CheckSpec(
    name="reducibility",
    phase="CSC",
    description="CSC-reducibility: determinism, commutativity and "
                "freedom from mutually complementary input sequences"))
register_check(CheckSpec(
    name="liveness",
    phase="live",
    description="deadlock freedom and reversibility extras",
    in_default=False))
