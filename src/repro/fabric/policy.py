"""Retry policy of the sweep fabric (and the serve client).

:class:`RetryPolicy` is frozen, hashable and serialisable -- the same
contract as :class:`~repro.api.config.EngineConfig` -- so a policy can
be parsed once from a ``--retry`` spec, shipped around and compared.
Backoff is exponential with *deterministic seeded jitter*: the jitter
fraction for a given ``(seed, key, attempt)`` comes from a SHA-256
draw, never from :mod:`random`, so two runs of the same plan back off
identically (and the chaos gate's timing stays reproducible in shape
even though wall clock never enters stable output).

Which statuses retry is part of the policy: ``error`` and ``timeout``
records carry no verdict, so re-running them can only help; ``ok`` and
``mismatch`` *are* verdicts and must never be retried -- a mismatch is
a result, not a failure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.utils.keyvalue import key_value_pairs

#: Entry statuses that are retryable by default: both mean "no verdict
#: was produced", never "the verdict was bad".
DEFAULT_RETRY_STATUSES = ("error", "timeout")

#: Scale of the 64-bit hash prefix the jitter draw is taken from.
_HASH_SPAN = float(2 ** 64)


class RetrySpecError(ValueError):
    """A ``--retry`` spec string does not parse."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``max_attempts`` counts total attempts (1 = never retry).  The
    delay before attempt ``n`` (n >= 2) is
    ``min(base_delay * multiplier**(n - 2), max_delay)`` scaled by a
    seeded jitter factor in ``[1 - jitter, 1]``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retry_statuses: Tuple[str, ...] = field(
        default=DEFAULT_RETRY_STATUSES)

    def __post_init__(self) -> None:
        object.__setattr__(self, "retry_statuses",
                           tuple(self.retry_statuses))
        if self.max_attempts < 1:
            raise RetrySpecError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise RetrySpecError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise RetrySpecError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise RetrySpecError(
                f"jitter must be in [0, 1], got {self.jitter}")
        for status in self.retry_statuses:
            if status in ("ok", "mismatch"):
                raise RetrySpecError(
                    f"status {status!r} is a verdict and can never be "
                    f"retryable")

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def retryable(self, status: str) -> bool:
        """True when ``status`` is eligible for another attempt."""
        return status in self.retry_statuses

    def should_retry(self, status: str, attempt: int) -> bool:
        """True when attempt number ``attempt`` (1-based) of an entry
        that ended in ``status`` should be followed by another."""
        return self.retryable(status) and attempt < self.max_attempts

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before attempt ``attempt`` (2-based).

        Deterministic for a given ``(seed, key, attempt)``: the jitter
        factor is a SHA-256 draw, not :mod:`random`, so backoff
        schedules agree across workers and machines.
        """
        if attempt <= 1:
            return 0.0
        delay = min(self.base_delay * self.multiplier ** (attempt - 2),
                    self.max_delay)
        if self.jitter > 0.0:
            digest = hashlib.sha256(
                f"{self.seed}|{key}|{attempt}".encode("utf-8")).digest()
            draw = int.from_bytes(digest[:8], "big") / _HASH_SPAN
            delay *= 1.0 - self.jitter * draw
        return delay


#: Spec keys of :func:`parse_retry_spec` mapped to dataclass fields.
_SPEC_KEYS = {
    "attempts": "max_attempts",
    "base": "base_delay",
    "multiplier": "multiplier",
    "max": "max_delay",
    "jitter": "jitter",
    "seed": "seed",
}


def parse_retry_spec(spec: str) -> RetryPolicy:
    """Parse a ``--retry`` spec string.

    Comma-separated ``key=value`` pairs: ``attempts`` (int),
    ``base``/``max`` (seconds), ``multiplier``, ``jitter`` (fraction in
    [0, 1]) and ``seed`` (int).  Example:
    ``attempts=4,base=0.05,max=1,jitter=0.5,seed=7``.
    """
    kwargs: Dict[str, object] = {}
    for key, value in key_value_pairs(spec, _SPEC_KEYS, RetrySpecError,
                                      "retry"):
        target = _SPEC_KEYS[key]
        try:
            if target in ("max_attempts", "seed"):
                kwargs[target] = int(value)
            else:
                kwargs[target] = float(value)
        except ValueError:
            raise RetrySpecError(
                f"bad value for {key!r} in retry spec: {value!r}")
    return RetryPolicy(**kwargs)
