"""Cooperative deadlines for the engines' long-running loops.

Durations are not measured here: every duration of a run is read from
the one clock of :mod:`repro.obs` (:func:`repro.obs.timed`).  Deadlines
are absolute :func:`time.monotonic` instants instead, so one set by a
caller still means the same instant inside a worker thread or process.
"""

from __future__ import annotations

import time
from typing import Optional


class DeadlineExceeded(Exception):
    """A cooperative deadline expired mid-computation.

    Raised by the symbolic fixpoint loop (the traversal and every
    closure) or the explicit state-graph enumeration when the
    ``deadline`` execution knob (an absolute :func:`time.monotonic`
    instant) has passed.  The worker primitive catches it and reports
    the entry as a ``timeout`` record, which is how the ``serial``
    backend (and ``process`` with ``jobs=1``) -- which runs entries
    in-process and cannot preempt one the way ``process`` worker
    processes can be killed -- still honours per-entry time budgets.
    """


def deadline_from_timeout(timeout: Optional[float]) -> Optional[float]:
    """Absolute monotonic deadline for a relative ``timeout`` budget."""
    if timeout is None:
        return None
    return time.monotonic() + float(timeout)


def check_deadline(deadline: Optional[float], context: str) -> None:
    """Raise :class:`DeadlineExceeded` when ``deadline`` has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded(
            f"cooperative deadline exceeded during {context}")
