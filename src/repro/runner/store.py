"""The persistent result cache of the sweep runner.

A :class:`RunStore` lives in a cache directory and persists every
computed :class:`~repro.runner.results.EntryResult` as one JSON line of
``results.jsonl`` (append-only, latest record per ``(name, fingerprint)``
key wins).  A subsequent sweep looks results up by the same key: the
fingerprint hashes the entry's canonical ``.g`` text plus the engine
configuration (see :attr:`repro.runner.plan.SweepTask.fingerprint`), so
editing a specification, switching engines or bumping the result schema
invalidates exactly the affected entries and nothing else -- and because
the key includes the fingerprint, sweeps with different engine configs
(or alternating content edits) can share one cache directory without
evicting each other.

Error and timeout records are persisted (they are useful history) but
never *served* as cache hits -- a failed entry is always retried on the
next sweep.  The file is a :class:`~repro.utils.journal.Journal`:
corrupt lines -- most commonly the torn trailing line a killed sweep
leaves behind -- are skipped with a :class:`RunStoreWarning` (never a
crash: resuming from exactly that state is the point) and dropped for
good by :meth:`RunStore.compact`.  Any number of processes on one host
may share a store: every read and write holds the journal's lock and
first folds in what other writers appended, so a compaction never drops
another writer's record and a lookup sees every record that landed
before it.

Beyond caching, the store is the unit of distribution: N machines sweep
disjoint ``--shard i/N`` slices into their own stores, and
:meth:`RunStore.merge` combines them into one (verdict records beat
retryable failures; identical keys are deterministic by construction).
Long-lived stores are bounded by :meth:`RunStore.gc`, which evicts
records beyond ``max_entries`` (oldest first) or older than ``max_age``
seconds -- every record is stamped with its ``stored_at`` time for
exactly this.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple, Union

from repro.runner.results import EntryResult
from repro.utils.journal import Journal

RESULTS_FILE = "results.jsonl"

#: Statuses that carry a complete, reproducible verdict.  Only these are
#: served as cache hits, and they win fingerprint conflicts on merge.
_VERDICT_STATUSES = ("ok", "mismatch")


class RunStoreWarning(UserWarning):
    """A non-fatal store problem (e.g. a corrupt JSONL line skipped)."""


class RunStore:
    """JSONL-backed persistent cache of sweep entry results."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, RESULTS_FILE)
        self._index: Dict[Tuple[str, str], Dict[str, object]] = {}
        #: Records ``merge(compact=False)`` adopted that are not on disk
        #: until the next ``compact()``.
        self._unsaved: Dict[Tuple[str, str], Dict[str, object]] = {}
        self._journal = Journal(self.path, "result record", RunStoreWarning)
        with self._journal.locked():
            self._replay()

    @property
    def skipped_lines(self) -> int:
        """Corrupt lines skipped so far; ``compact()`` repairs the file
        (resume flows check this to know a repair is due)."""
        return self._journal.skipped_lines

    def _replay(self) -> None:
        """Fold what other writers appended into the index (hold the lock)."""
        self._journal.replay(self._apply, self._reset)

    def _apply(self, record: Dict[str, object]) -> None:
        self._index[(record["name"], record["fingerprint"])] = record

    def _reset(self) -> None:
        # Another writer compacted the file: rebuild the index from it,
        # keeping the adoptions not written yet.
        self._index = dict(self._unsaved)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name: str) -> bool:
        return any(key_name == name for key_name, _ in self._index)

    # ------------------------------------------------------------------
    # Cache protocol
    # ------------------------------------------------------------------
    def lookup(self, name: str, fingerprint: str) -> Optional[EntryResult]:
        """A reusable result for ``name``, or ``None``.

        Serves only records whose fingerprint matches the current task
        content and that actually carry a verdict; the returned result is
        marked :attr:`~repro.runner.results.EntryResult.cached`.
        """
        with self._journal.locked():
            self._replay()
            record = self._index.get((name, fingerprint))
        if record is None:
            return None
        if record.get("status") not in _VERDICT_STATUSES:
            return None  # always retry errors and timeouts
        result = EntryResult.from_dict(record)
        result.cached = True
        return result

    def duration_hint(self, name: str) -> Optional[float]:
        """Longest recorded compute duration for entry ``name``.

        Scheduling history, not a verdict: the lease coordinator uses it
        for longest-job-first issue order.  Any fingerprint counts --
        config and content edits change the fingerprint but rarely the
        order of magnitude -- and ``None`` means the entry was never
        seen, which schedulers should treat as potentially long.
        """
        durations = [float(record.get("duration") or 0.0)
                     for (key_name, _), record in self._index.items()
                     if key_name == name]
        return max(durations) if durations else None

    def put(self, result: EntryResult) -> None:
        """Persist a freshly computed result (cache hits are not re-written).

        Records are stamped with their ``stored_at`` wall-clock time,
        which orders :meth:`gc` eviction and breaks merge ties between
        retryable failures.
        """
        if result.cached:
            return
        record = result.to_dict()
        record["stored_at"] = time.time()
        with self._journal.locked():
            self._replay()
            self._journal.append(record)
            self._index[(result.name, result.fingerprint)] = record

    def compact(self) -> None:
        """Rewrite the JSONL file keeping the latest record per
        ``(name, fingerprint)`` key, dropping corrupt lines."""
        with self._journal.locked():
            self._replay()
            self._journal.rewrite(self._index.values())
            self._unsaved.clear()

    # ------------------------------------------------------------------
    # Distribution: merging shard stores
    # ------------------------------------------------------------------
    def merge(self, other: Union["RunStore", str],
              compact: bool = True) -> int:
        """Adopt ``other``'s records into this store; returns the count.

        This is how N ``--shard i/N`` sweeps on different machines become
        one store: each shard sweeps into its own directory, the
        directories are shipped to one place and merged.  Conflicts on a
        ``(name, fingerprint)`` key resolve deterministically:

        * a verdict record (``ok``/``mismatch``) beats a retryable one
          (``error``/``timeout``) -- a machine that finished the entry
          outranks one that crashed on it;
        * two verdict records are interchangeable by construction (the
          fingerprint pins content, config and schema; verification is
          deterministic), so the incumbent is kept;
        * two retryable records keep the newest (``stored_at``),
          incumbent on ties -- re-merging an already-merged store adopts
          nothing.

        A string source must be an *existing* directory (a typo'd shard
        path must not silently merge as an empty store).  The merged
        index is compacted to disk before returning; pass
        ``compact=False`` when merging several sources in a row and call
        :meth:`compact` once at the end.
        """
        if isinstance(other, str):
            if not os.path.isdir(other):
                raise ValueError(
                    f"cannot merge {other!r}: no such run-store directory")
            other = RunStore(other)
        adopted = 0
        with self._journal.locked():
            self._replay()
            for key, theirs in other._index.items():
                mine = self._index.get(key)
                if mine is None or self._prefers(theirs, mine):
                    self._index[key] = self._unsaved[key] = dict(theirs)
                    adopted += 1
            if adopted and compact:
                self.compact()
        return adopted

    @staticmethod
    def _prefers(theirs: Dict[str, object],
                 mine: Dict[str, object]) -> bool:
        theirs_verdict = theirs.get("status") in _VERDICT_STATUSES
        mine_verdict = mine.get("status") in _VERDICT_STATUSES
        if theirs_verdict != mine_verdict:
            return theirs_verdict
        if not theirs_verdict:  # both retryable: newest information wins
            return _stored_at(theirs) > _stored_at(mine)
        return False  # both verdicts: deterministic, keep the incumbent

    # ------------------------------------------------------------------
    # Eviction: bounding long-lived stores
    # ------------------------------------------------------------------
    def gc(self, max_entries: Optional[int] = None,
           max_age: Optional[float] = None,
           now: Optional[float] = None) -> int:
        """Evict records by age and/or count; returns how many were dropped.

        ``max_age`` drops every record stored more than that many seconds
        before ``now`` (default: the current time; records predating the
        ``stored_at`` stamp count as infinitely old).  ``max_entries``
        then trims the survivors to the N most recently stored, evicting
        oldest first (file order breaks stamp ties).  The file is
        compacted when anything was evicted.
        """
        if max_entries is None and max_age is None:
            raise ValueError("gc() needs max_entries and/or max_age")
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_age is not None and max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        now = time.time() if now is None else now

        with self._journal.locked():
            self._replay()
            doomed = set()
            if max_age is not None:
                for key, record in self._index.items():
                    if now - _stored_at(record) > max_age:
                        doomed.add(key)
            if max_entries is not None:
                survivors = [key for key in self._index
                             if key not in doomed]
                excess = len(survivors) - max_entries
                if excess > 0:
                    oldest_first = sorted(
                        range(len(survivors)),
                        key=lambda i: (_stored_at(self._index[survivors[i]]),
                                       i))
                    doomed.update(survivors[i]
                                  for i in oldest_first[:excess])
            for key in doomed:
                del self._index[key]
            if doomed:
                self.compact()
        return len(doomed)


def _stored_at(record: Dict[str, object]) -> float:
    try:
        return float(record.get("stored_at") or 0.0)
    except (TypeError, ValueError):
        return 0.0


# ----------------------------------------------------------------------
# CLI support: --cache-gc specs
# ----------------------------------------------------------------------
_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_gc_spec(text: str) -> Dict[str, float]:
    """Parse a ``--cache-gc`` spec into :meth:`RunStore.gc` keywords.

    The spec is comma-separated ``entries=N`` and/or ``age=AGE`` parts,
    where ``AGE`` is seconds with an optional ``s``/``m``/``h``/``d``
    suffix: ``entries=1000``, ``age=7d``, ``entries=500,age=12h``.
    """
    keywords: Dict[str, float] = {}
    for part in text.split(","):
        key, equals, value = part.strip().partition("=")
        if not equals:
            raise ValueError(
                f"invalid cache-gc spec part {part.strip()!r} in {text!r}; "
                f"expected entries=N and/or age=AGE (e.g. entries=1000, "
                f"age=7d)")
        if key == "entries":
            try:
                entries = int(value)
                if entries < 0:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"invalid entry count {value!r} in cache-gc spec "
                    f"{text!r}") from None
            keywords["max_entries"] = entries
        elif key == "age":
            scale = 1.0
            if value and value[-1] in _AGE_UNITS:
                scale = _AGE_UNITS[value[-1]]
                value = value[:-1]
            try:
                age = float(value) * scale
                if age < 0:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"invalid age {part.strip()!r} in cache-gc spec "
                    f"{text!r}; expected non-negative seconds or a "
                    f"s/m/h/d suffix (e.g. age=7d)") from None
            keywords["max_age"] = age
        else:
            raise ValueError(
                f"unknown cache-gc key {key!r} in {text!r}; expected "
                f"'entries' and/or 'age'")
    if not keywords:
        raise ValueError(f"empty cache-gc spec {text!r}")
    return keywords
