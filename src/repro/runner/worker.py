"""Worker-side execution of one sweep task.

:func:`execute_payload` is the single execution primitive every
:mod:`~repro.runner.backends` backend is built on: it takes a
:meth:`~repro.runner.plan.SweepTask.to_payload` dict -- plain data, no
registry access needed -- parses the canonical ``.g`` text, runs the
requested engine and returns an
:class:`~repro.runner.results.EntryResult` dict.  The ``serial`` backend
and the :mod:`repro.serve` daemon call it in-process (it keeps no module
state, so concurrent calls are safe); the ``process`` backend wraps it in
:func:`child_main`, which ships the result dict back through the worker's
pipe.  Everything that can go wrong inside the check (parse errors,
engine exceptions) is caught and reported as an ``error`` result, so one
poisoned entry never kills the sweep; only the process-level failures
(crash, timeout) are handled by the pool scheduler.

Both :func:`execute_payload` and :func:`child_main` are module-level
functions so they pickle under every multiprocessing start method.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict

from repro import faults, obs
from repro.runner.results import EntryResult
from repro.utils.timing import DeadlineExceeded, deadline_from_timeout


def execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one task payload; always returns an EntryResult dict.

    When the payload's config carries a ``trace_dir`` (the ``--trace``
    execution knob), the whole entry runs under an activated
    :mod:`repro.obs` tracer writing one JSONL file keyed by the task
    fingerprint; the root ``entry`` span then parents every stage span
    the engine emits.  Tracing never changes the result: the stamp is
    activation-scoped (contextvars), so concurrent daemon entries
    stay isolated, and the sweep gate proves traced/untraced
    stable-JSON byte parity.  The record's ``duration`` is the ``entry``
    span's own (:func:`repro.obs.timed`), traced or not.

    Timeouts are enforced *cooperatively* here, for every backend: a
    ``timeout`` config knob (without an explicit ``deadline``) becomes
    an absolute monotonic deadline the engines check once per fixpoint
    iteration, and :class:`~repro.utils.timing.DeadlineExceeded`
    surfaces as a ``timeout`` record.  The ``process`` backend keeps
    its preemptive kill on top (a wedged C extension beats any
    cooperative check); ``serial`` and the daemon rely on this path
    alone.

    A ``fault_plan`` knob (the lease fabric's chaos dial) injects
    deterministic failures: ``crash`` raises before verification (an
    ``error`` record), ``hang`` starts the entry with an
    already-expired deadline so the cooperative check fires (a
    ``timeout`` record).  Both are recovered by the coordinator's
    retry, which re-dispatches with a bumped attempt number.
    """
    name = str(payload["name"])
    config = dict(payload.get("config") or {})
    engine = str(config.get("engine", "?"))
    fingerprint = str(payload["fingerprint"])
    delay = float(payload.get("delay") or 0.0)
    trace_dir = config.get("trace_dir")
    plan = faults.plan_from_config(config)
    if config.get("deadline") is None and config.get("timeout") is not None:
        config["deadline"] = deadline_from_timeout(
            float(config["timeout"]))
    if plan is not None and plan.decides("hang", fingerprint):
        # A simulated wedge: the entry starts past its deadline, so the
        # engines' cooperative check raises on the first iteration --
        # the genuine timeout path, without burning wall clock.
        config["deadline"] = max(1e-9, time.monotonic() - 1.0)
    payload = dict(payload)
    payload["config"] = config
    meta = {"engine": engine,
            "provenance": dict(payload.get("provenance") or {})}
    with obs.tracing(trace_dir if trace_dir else None, name=name,
                     fingerprint=fingerprint, meta=meta):
        with obs.timed("entry", entry=name, engine=engine) as entry_span:
            try:
                if delay:
                    time.sleep(delay)
                if plan is not None and plan.decides("crash", fingerprint):
                    raise faults.InjectedWorkerCrash(
                        f"injected worker crash (attempt {plan.attempt})")
                report, traversal = _check(payload)
                mismatches = _mismatches(payload, report)
                result = EntryResult(
                    name=name,
                    status="ok" if not mismatches else "mismatch",
                    engine=engine,
                    fingerprint=fingerprint,
                    report=report.to_dict(),
                    traversal=traversal,
                    mismatches=mismatches)
            except DeadlineExceeded as error:
                result = EntryResult(
                    name=name,
                    status="timeout",
                    engine=engine,
                    fingerprint=fingerprint,
                    error=f"{type(error).__name__}: {error}")
            except Exception as error:
                result = EntryResult(
                    name=name,
                    status="error",
                    engine=engine,
                    fingerprint=fingerprint,
                    error=f"{type(error).__name__}: {error}")
            entry_span.annotate(status=result.status)
    result.duration = entry_span.duration_s
    return result.to_dict()


def _check(payload: Dict[str, object]):
    """Parse and verify through the facade; returns ``(report, traversal)``.

    The payload's ``config`` dict is replayed as an
    :class:`~repro.api.config.EngineConfig` and executed via
    :func:`repro.api.run` with the payload's check selection (every
    supported check when none was given, so cached verdicts are complete
    by default; a ``--checks`` subset batches exactly those checks over
    the entry's shared intermediates).
    """
    from repro import api
    from repro.stg.parser import parse_g

    with obs.span("parse"):
        stg = parse_g(str(payload["g_text"]), name=str(payload["name"]))
    config = api.EngineConfig.from_dict(dict(payload.get("config") or {}))
    checks = payload.get("checks")
    outcome = api.run(stg, config,
                      checks=api.ALL if checks is None else list(checks))
    return outcome.report, outcome.traversal


def _mismatches(payload: Dict[str, object], report) -> list:
    from repro.corpus import mismatches_against

    return mismatches_against(dict(payload.get("expected") or {}), report)


def child_main(connection, payload: Dict[str, object]) -> None:
    """Subprocess entry point: execute, send the result dict, exit."""
    try:
        result = execute_payload(payload)
    except BaseException:  # pragma: no cover - execute_payload catches
        result = EntryResult(
            name=str(payload.get("name", "?")),
            status="error",
            engine=str(dict(payload.get("config") or {}).get("engine", "?")),
            fingerprint=str(payload.get("fingerprint", "")),
            error=f"worker crashed:\n{traceback.format_exc()}").to_dict()
    try:
        connection.send(result)
    finally:
        connection.close()
