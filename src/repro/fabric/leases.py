"""The lease journal of the sweep fabric.

A :class:`LeaseStore` is the :class:`~repro.runner.store.RunStore`'s
sibling: an append-only JSONL journal (``leases.jsonl``) living in a
lease directory, recording every ``claim``, ``renew`` and ``release``
of a sweep entry.  A lease grants one holder the right to compute one
entry until a *wall-clock deadline* (a :func:`time.time` instant, so it
means the same to every process and survives a reboot); a holder that
keeps working renews before the deadline, a holder that finishes
releases with the entry's outcome, and a holder that dies simply stops
renewing -- the lease expires and the entry becomes claimable again,
which is the whole work-stealing contract: a dead or wedged worker's
entries are automatically re-issued, no operator intervention required.

Any number of processes on one host may share a lease directory.  The
journal is a :class:`~repro.utils.journal.Journal`, and every lease
operation holds its lock across *replay the tail -> decide -> append*:
a claim sees every claim and release that landed before it, so a valid
lease is never granted twice, and tokens come from the replayed journal,
so no two grants share one -- also across :meth:`LeaseStore.compact`.
Corrupt lines (the torn trailing record a killed coordinator leaves
behind) are skipped with a :class:`LeaseStoreWarning` and dropped for
good by :meth:`LeaseStore.compact`.

Nothing in this module may influence verdicts: lease records carry
entry *identity* (name + fingerprint key) and scheduling state only,
and the analyzer's RA205 rule keeps lease metadata out of fingerprint
material and stable views.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional

from repro.utils.journal import Journal

LEASES_FILE = "leases.jsonl"

#: Journal operations, in lifecycle order.
LEASE_OPS = ("claim", "renew", "release")


class LeaseStoreWarning(UserWarning):
    """A non-fatal lease-journal problem (e.g. a corrupt line skipped)."""


@dataclass(frozen=True)
class Lease:
    """One granted lease: the right to compute ``key`` until ``deadline``.

    ``key`` identifies the sweep entry (the runner uses
    ``name::fingerprint``); ``token`` is unique per grant, so a stale
    holder whose lease expired and was re-claimed cannot release the
    new holder's lease.  ``deadline`` is a :func:`time.time` instant.
    """

    key: str
    name: str
    holder: str
    token: int
    deadline: float

    def expired(self, now: Optional[float] = None) -> bool:
        """True when the lease's deadline has passed."""
        now = time.time() if now is None else now
        return now > self.deadline

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "name": self.name,
            "holder": self.holder,
            "token": self.token,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Lease":
        return cls(
            key=str(data["key"]),
            name=str(data["name"]),
            holder=str(data["holder"]),
            token=int(data["token"]),
            deadline=float(data["deadline"]))


class LeaseStore:
    """JSONL-backed journal of sweep-entry leases."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, LEASES_FILE)
        #: key -> the currently active lease (claimed or renewed, not
        #: yet released).  Expiry is evaluated lazily against ``now``.
        self._active: Dict[str, Lease] = {}
        #: The lease holding the highest token the journal has issued;
        #: the next claim's token is one more.
        self._newest: Optional[Lease] = None
        #: Claims that displaced an expired lease (work stealing).
        self.reclaimed = 0
        self._journal = Journal(self.path, "lease record", LeaseStoreWarning)
        with self._journal.locked():
            self._replay()

    @property
    def skipped_lines(self) -> int:
        """Corrupt journal lines skipped so far; ``compact()`` repairs
        the file."""
        return self._journal.skipped_lines

    # ------------------------------------------------------------------
    # Journal replay
    # ------------------------------------------------------------------
    def _replay(self) -> None:
        """Fold what other holders appended into the table (hold the lock)."""
        self._journal.replay(lambda record, _offset: self._apply(record),
                             self._active.clear)

    def _apply(self, record: Mapping[str, object]) -> None:
        op = record["op"]
        if op not in LEASE_OPS:
            raise ValueError(f"unknown lease op {op!r}")
        lease = Lease.from_dict(record)
        if self._newest is None or lease.token >= self._newest.token:
            self._newest = lease
        if op == "release":
            current = self._active.get(lease.key)
            if current is not None and current.token == lease.token:
                del self._active[lease.key]
        else:
            self._active[lease.key] = lease

    def _append(self, op: str, lease: Lease, **extra: object) -> None:
        record = dict(lease.to_dict(), op=op, **extra)
        self._journal.append(record)
        self._apply(record)

    def _synced(self) -> Dict[str, Lease]:
        """The active table, caught up with the journal."""
        with self._journal.locked():
            self._replay()
        return self._active

    def __len__(self) -> int:
        return len(self._synced())

    # ------------------------------------------------------------------
    # Lease protocol
    # ------------------------------------------------------------------
    def claim(self, key: str, name: str, holder: str, duration: float,
              now: Optional[float] = None) -> Optional[Lease]:
        """Claim ``key`` for ``duration`` seconds; ``None`` when another
        holder's lease is still valid.

        Claiming over an *expired* lease succeeds -- that is the
        work-stealing path -- and is counted in :attr:`reclaimed`.
        """
        now = time.time() if now is None else now
        with self._journal.locked():
            self._replay()
            current = self._active.get(key)
            if current is not None:
                if not current.expired(now):
                    return None
                self.reclaimed += 1
            token = self._newest.token + 1 if self._newest else 1
            lease = Lease(key=key, name=name, holder=holder, token=token,
                          deadline=now + duration)
            self._append("claim", lease)
        return lease

    def renew(self, lease: Lease, duration: float,
              now: Optional[float] = None) -> Optional[Lease]:
        """Extend ``lease`` by ``duration`` from ``now``; ``None`` when
        the lease is no longer current (expired-and-reclaimed, or
        released)."""
        now = time.time() if now is None else now
        with self._journal.locked():
            self._replay()
            current = self._active.get(lease.key)
            if current is None or current.token != lease.token:
                return None
            if current.expired(now):
                return None
            renewed = replace(current, deadline=now + duration)
            self._append("renew", renewed)
        return renewed

    def release(self, lease: Lease, outcome: str,
                now: Optional[float] = None) -> bool:
        """Release ``lease``, recording the entry's ``outcome``.

        Returns ``False`` -- and records nothing -- when the lease is no
        longer valid: the token was superseded by a re-claim, or the
        deadline passed before the holder got here.  A ``False`` return
        is the stale-holder signal: the caller's result must be
        discarded, because the entry either was or will be re-issued.
        An invalidated (expired) lease is dropped from the active table
        so the entry is immediately claimable again.
        """
        now = time.time() if now is None else now
        with self._journal.locked():
            self._replay()
            current = self._active.get(lease.key)
            if current is None or current.token != lease.token:
                return False
            if current.expired(now):
                del self._active[lease.key]
                return False
            self._append("release", current, outcome=outcome)
        return True

    def active_leases(self) -> List[Lease]:
        """Every lease in the active table, expired or not."""
        return list(self._synced().values())

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Rewrite the journal keeping one ``claim`` record per active
        lease, dropping corrupt lines and resolved histories.

        When the newest lease is no longer active, its ``release``
        record is kept too: it carries the highest token issued, so
        tokens never repeat across a compaction.
        """
        with self._journal.locked():
            self._replay()
            records = [dict(self._active[key].to_dict(), op="claim")
                       for key in sorted(self._active)]
            newest = self._newest
            if newest is not None and \
                    newest not in self._active.values():
                records.append(dict(newest.to_dict(), op="release"))
            self._journal.rewrite(records)
