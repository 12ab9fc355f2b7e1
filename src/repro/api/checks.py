"""The property checks of the verification facade.

Every implementability property of the paper is a named check.
``repro.api.verify(stg, config, checks=("csc", "persistency"))`` (and
the CLI's ``--checks csc,persistency``) runs exactly the selected subset
over the engine's shared intermediates -- the symbolic pipeline's
reachable-state BDD or the explicit engine's state graph is still
computed once and shared, but properties nobody asked for are skipped.

:data:`CHECKS` is the fixed table of the seven checks (the paper's
Sections 5.1-5.4 plus the liveness extras), built once at import.  A
:class:`CheckSpec` carries a check's timing phase and whether it is
part of the default set; both engines run every check,
as a method ``_check_<name>`` of their verification context
(:class:`repro.core.pipeline.VerificationPipeline` /
:class:`repro.sg.checker.ExplicitVerification`).  Checks always run in
table order regardless of the order they were selected in, so reports
stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Union

from repro.api.errors import UnknownCheckError
from repro.report import ImplementabilityReport
from repro.utils.registry import Registry

#: Sentinel selecting every check (the sweep runner uses this so cached
#: verdicts are always complete).
ALL = "all"


@dataclass(frozen=True)
class CheckSpec:
    """One property check.

    ``in_default`` controls membership in the default selection
    (``checks=None``): the liveness extras are opt-in.
    """

    name: str
    phase: str
    in_default: bool = True


#: The checks by name, in canonical order (README's check table says
#: what each decides and where the paper defines it).
CHECKS: Registry[CheckSpec] = Registry(UnknownCheckError, [
    (spec.name, spec) for spec in (
        CheckSpec(name="consistency", phase="T+C"),
        CheckSpec(name="safeness", phase="T+C"),
        CheckSpec(name="persistency", phase="NI-p"),
        CheckSpec(name="fake_conflicts", phase="NI-p"),
        CheckSpec(name="csc", phase="CSC"),
        CheckSpec(name="reducibility", phase="CSC"),
        CheckSpec(name="liveness", phase="live", in_default=False),
    )])
available_checks = CHECKS.available


def default_checks() -> List[str]:
    """The default selection: every in-default check."""
    return [name for name in CHECKS if CHECKS[name].in_default]


def resolve_checks(checks: Union[None, str, Iterable[str]]) -> List[str]:
    """Validate and canonicalise a check selection.

    ``None`` selects the default set, :data:`ALL` every check; an
    iterable (or a comma-separated string, as on the CLI) is validated
    name by name: an unknown name raises :class:`UnknownCheckError`
    with a did-you-mean suggestion.  The result is duplicate-free and
    in canonical table order.
    """
    if checks is None:
        return default_checks()
    if checks == ALL:
        return available_checks()
    if isinstance(checks, str):
        checks = [part.strip() for part in checks.split(",") if part.strip()]
    requested = list(checks)
    for name in requested:
        CHECKS.get(name)  # unknown name -> UnknownCheckError
    return [name for name in CHECKS if name in requested]


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
    """Run one check against an engine context: its bound
    ``_check_<name>`` method.  Both engines dispatch through here."""
    method = getattr(context, f"_check_{spec.name}", None)
    if method is None:  # pragma: no cover - both engines run every check
        raise ValueError(
            f"check {spec.name!r} has no {engine} implementation")
    method(report)
