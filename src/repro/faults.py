"""Deterministic fault injection for the sweep fabric.

:class:`FaultPlan` is the chaos dial of the lease-based sweep fabric
(:mod:`repro.fabric`): a seeded, fully deterministic description of
which faults to inject where.  It rides on
:class:`~repro.api.config.EngineConfig` as the ``fault_plan`` execution
knob -- excluded from every cache fingerprint, exactly like
``trace_dir`` -- so an injected sweep caches, fingerprints and verifies
identically to a clean one.  That is the property the sweep gate's
chaos leg turns into CI: a fault-injected lease sweep must emit stable
JSON byte-identical to a clean serial sweep.

Determinism is load-bearing.  Each injection decision hashes
``seed | kind | key`` with SHA-256 and compares against the kind's
rate, so decisions are independent of ``PYTHONHASHSEED``, execution
order, worker count and wall clock: the same plan injects the same
faults into the same entries on every machine, every run.  Decisions
also fire only on an entry's *first* attempt
(:meth:`FaultPlan.for_attempt` stamps the attempt number into the
per-dispatch plan), so the retry machinery always converges on the
clean verdict.

Four fault kinds cover the recovery paths the fabric promises:

``crash``
    The worker primitive raises before verifying -- the entry yields an
    ``error`` record, retried by policy.
``hang``
    The entry runs with a one-nanosecond ``timeout``, so the engine's
    first cooperative deadline check raises
    :class:`~repro.utils.timing.DeadlineExceeded` -- a ``timeout``
    record, retried by policy.
``truncate``
    The coordinator tears the store append mid-line
    (:func:`torn_write`) and discards the in-memory result -- the lease
    is never released, expires, and the entry is re-issued.
``stall``
    The coordinator's renewal loop skips the entry's lease, which
    expires mid-flight; the late release is rejected and the entry is
    re-issued.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional

from repro.utils.journal import Journal
from repro.utils.keyvalue import key_value_pairs

#: The injectable fault kinds, in spec order.
FAULT_KINDS = ("crash", "hang", "truncate", "stall")

#: Scale of the 64-bit hash prefix an injection decision compares
#: against its rate.
_HASH_SPAN = float(2 ** 64)


class FaultSpecError(ValueError):
    """A ``--inject-faults`` spec string does not parse."""


class InjectedWorkerCrash(Exception):
    """The fault a ``crash`` injection raises inside the worker.

    Deliberately a plain :class:`Exception`: the worker primitive's
    normal catch-all turns it into an ``error`` record, exactly like a
    real engine crash would -- the recovery path under test is the
    generic one, not a special case."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic fault-injection plan.

    Rates are probabilities in ``[0, 1]`` per fault kind; ``seed``
    decorrelates plans; ``attempt`` is the dispatch attempt the plan is
    evaluated under (faults fire only on attempt 1, so retries always
    recover the clean verdict).
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    truncate: float = 0.0
    stall: float = 0.0
    attempt: int = 1

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(
                    f"fault rate {kind}={rate} outside [0, 1]")
        if self.attempt < 1:
            raise FaultSpecError(
                f"attempt must be >= 1, got {self.attempt}")

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decides(self, kind: str, key: str) -> bool:
        """Deterministically decide whether ``kind`` fires for ``key``.

        ``key`` is any stable per-entry identifier (the sweep uses the
        task fingerprint).  The decision is a pure function of
        ``(seed, kind, key)`` -- immune to hash randomisation and
        execution order -- and always ``False`` past attempt 1.
        """
        if kind not in FAULT_KINDS:
            raise FaultSpecError(f"unknown fault kind {kind!r}; "
                                 f"known: {', '.join(FAULT_KINDS)}")
        if self.attempt != 1:
            return False
        rate = float(getattr(self, kind))
        if rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}|{kind}|{key}".encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / _HASH_SPAN
        return draw < rate

    def for_attempt(self, attempt: int) -> "FaultPlan":
        """The same plan evaluated under dispatch attempt ``attempt``."""
        return replace(self, attempt=attempt)

    # ------------------------------------------------------------------
    # The spec string (CLI flag, EngineConfig.fault_plan knob)
    # ------------------------------------------------------------------
    def to_spec(self) -> str:
        """Canonical ``--inject-faults`` spec string form.

        ``parse_fault_spec(plan.to_spec()) == plan`` holds exactly; the
        string form is what rides on ``EngineConfig.fault_plan`` so the
        knob stays a plain JSON scalar in worker payloads.
        """
        parts = [f"{kind}={getattr(self, kind):g}" for kind in FAULT_KINDS
                 if getattr(self, kind) > 0.0]
        parts.append(f"seed={self.seed}")
        if self.attempt != 1:
            parts.append(f"attempt={self.attempt}")
        return ",".join(parts)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse an ``--inject-faults`` spec.

    Comma-separated ``key=value`` pairs: one per fault kind
    (``crash=0.2,hang=0.1``), plus ``seed=N`` and (internal)
    ``attempt=N``.  Raises :class:`FaultSpecError` on anything else.
    """
    kwargs: Dict[str, object] = {}
    keys = FAULT_KINDS + ("seed", "attempt")
    for key, value in key_value_pairs(spec, keys, FaultSpecError, "fault"):
        try:
            kwargs[key] = float(value) if key in FAULT_KINDS else int(value)
        except ValueError:
            raise FaultSpecError(
                f"bad value for {key!r} in fault spec: {value!r}")
    return FaultPlan(**kwargs)


def plan_from_config(config: Mapping[str, object]) -> Optional[FaultPlan]:
    """The :class:`FaultPlan` carried by a config dict, if any.

    The worker primitive calls this on the raw payload config; a
    missing or empty ``fault_plan`` knob means no injection.
    """
    spec = config.get("fault_plan")
    if not spec:
        return None
    return parse_fault_spec(str(spec))


def torn_write(path: str, record: Mapping[str, object]) -> None:
    """Append the *front half* of a JSONL record, with no newline -- a
    simulated crash mid-write.

    This is the real crash shape: the writer held the journal lock,
    wrote part of its line and died.  The next append to the journal
    starts on a fresh line, so readers skip exactly the torn line and
    ``compact()`` repairs the file.
    """
    line = json.dumps(record, sort_keys=True)
    journal = Journal(path)
    with journal.locked():
        journal.append(record)
        cut = len(line) + 1 - max(1, len(line) // 2)
        os.truncate(path, os.path.getsize(path) - cut)
