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

import contextlib
import os
import time
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple, Union

from repro import obs
from repro.runner.results import EntryResult
from repro.utils.journal import Journal

RESULTS_FILE = "results.jsonl"

#: Statuses that carry a complete, reproducible verdict.  Only these are
#: served as cache hits, and they win fingerprint conflicts on merge.
_VERDICT_STATUSES = ("ok", "mismatch")

_Key = Tuple[str, str]


class RunStoreWarning(UserWarning):
    """A non-fatal store problem (e.g. a corrupt JSONL line skipped)."""


class _Entry(NamedTuple):
    """What the index keeps of one record: where its line starts
    (``None`` for a merge adoption not written yet), whether it is a
    verdict, and the two figures eviction, merging and scheduling read."""

    offset: Optional[int]
    verdict: bool
    stored_at: float
    duration: float


def _entry(record: Dict[str, object], offset: Optional[int]) -> _Entry:
    return _Entry(offset, record.get("status") in _VERDICT_STATUSES,
                  _number(record, "stored_at"), _number(record, "duration"))


class RunStore:
    """JSONL-backed persistent cache of sweep entry results.

    The store keeps one small :class:`_Entry` per ``(name,
    fingerprint)`` key, not the record: a hit reads its record's line
    back from ``results.jsonl``, so what a long-lived store holds in
    memory does not grow with the size of its reports.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, RESULTS_FILE)
        self._index: Dict[_Key, _Entry] = {}
        #: Records ``merge(compact=False)`` adopted that are not on disk
        #: until the next ``compact()``; an entry without an offset is
        #: served from here.
        self._unsaved: Dict[_Key, Dict[str, object]] = {}
        #: Name -> the longest duration among its indexed records, or
        #: ``None`` once the record holding it gave way to a shorter one
        #: (recounted when next asked for).
        self._longest: Dict[str, Optional[float]] = {}
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

    def _apply(self, record: Dict[str, object], offset: int) -> None:
        self._set_entry((record["name"], record["fingerprint"]),
                        _entry(record, offset))

    def _reset(self) -> None:
        # Another writer compacted the file: rebuild the index from it,
        # keeping the adoptions not written yet.
        self._reindex((key, _entry(record, None))
                      for key, record in self._unsaved.items())

    def _set_entry(self, key: _Key, entry: _Entry) -> None:
        """Index ``entry`` under ``key``, latest wins, and keep the
        name's longest duration."""
        previous = self._index.get(key)
        self._index[key] = entry
        name = key[0]
        if name not in self._longest:
            self._longest[name] = entry.duration
            return
        longest = self._longest[name]
        if longest is None:
            return  # already due for a recount
        if (previous is not None and previous.duration == longest
                and entry.duration < longest):
            self._longest[name] = None
        else:
            self._longest[name] = max(longest, entry.duration)

    def _reindex(self, entries: Iterable[Tuple[_Key, _Entry]]) -> None:
        """Replace the index with ``entries`` and recount the longest
        durations (``entries`` may iterate the old index)."""
        self._index, self._longest = {}, {}
        for key, entry in entries:
            self._set_entry(key, entry)

    def _record(self, key: _Key, entry: _Entry) -> Dict[str, object]:
        """The record ``entry`` indexes (hold the lock, after a replay)."""
        if entry.offset is None:
            return self._unsaved[key]
        return self._journal.read(entry.offset)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name: str) -> bool:
        return name in self._longest

    # ------------------------------------------------------------------
    # Cache protocol
    # ------------------------------------------------------------------
    def lookup(self, name: str, fingerprint: str) -> Optional[EntryResult]:
        """A reusable result for ``name``, or ``None``.

        Serves only records whose fingerprint matches the current task
        content and that actually carry a verdict; the returned result is
        marked :attr:`~repro.runner.results.EntryResult.cached`.  A hit
        reads its record's one line back from the file.
        """
        key = (name, fingerprint)
        with self._journal.locked():
            self._replay()
            entry = self._index.get(key)
            if entry is None or not entry.verdict:
                return None  # always retry errors and timeouts
            record = self._record(key, entry)
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
        if name not in self._longest:
            return None
        longest = self._longest[name]
        if longest is None:
            with self._journal.locked():
                longest = self._longest[name] = max(
                    entry.duration
                    for (key_name, _), entry in self._index.items()
                    if key_name == name)
        return longest

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
        with obs.span("runstore.put"), self._journal.locked():
            self._replay()
            self._apply(record, self._journal.append(record))

    def compact(self) -> None:
        """Rewrite the JSONL file keeping the latest record per
        ``(name, fingerprint)`` key, dropping corrupt lines."""
        with self._journal.locked():
            self._replay()
            index = self._index
            offsets = self._journal.rewrite(
                self._record(key, entry) for key, entry in index.items())
            self._reindex((key, entry._replace(offset=offset))
                          for (key, entry), offset
                          in zip(index.items(), offsets))
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
        :meth:`compact` once at the end.  Adopted records are read from
        ``other`` under both stores' locks.
        """
        if isinstance(other, str):
            if not os.path.isdir(other):
                raise ValueError(
                    f"cannot merge {other!r}: no such run-store directory")
            other = RunStore(other)
        adopted = 0
        with self._locked_with(other):
            self._replay()
            other._replay()
            for key, theirs in other._index.items():
                mine = self._index.get(key)
                if mine is None or _prefers(theirs, mine):
                    self._unsaved[key] = other._record(key, theirs)
                    self._set_entry(key, theirs._replace(offset=None))
                    adopted += 1
            if adopted and compact:
                self.compact()
        return adopted

    @contextlib.contextmanager
    def _locked_with(self, other: "RunStore") -> Iterator[None]:
        """Hold this store's lock and ``other``'s, taken in path order so
        merges in opposite directions cannot deadlock; stores sharing a
        file share one lock, which this store takes."""
        journals = {os.path.realpath(other.path): other._journal,
                    os.path.realpath(self.path): self._journal}
        with contextlib.ExitStack() as stack:
            for path in sorted(journals):
                stack.enter_context(journals[path].locked())
            yield

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
                doomed.update(key for key, entry in self._index.items()
                              if now - entry.stored_at > max_age)
            if max_entries is not None:
                survivors = [key for key in self._index
                             if key not in doomed]
                excess = len(survivors) - max_entries
                if excess > 0:
                    oldest_first = sorted(
                        range(len(survivors)),
                        key=lambda i: (self._index[survivors[i]].stored_at,
                                       i))
                    doomed.update(survivors[i]
                                  for i in oldest_first[:excess])
            if doomed:
                self._reindex((key, entry)
                              for key, entry in self._index.items()
                              if key not in doomed)
                self.compact()
        return len(doomed)


def _prefers(theirs: _Entry, mine: _Entry) -> bool:
    if theirs.verdict != mine.verdict:
        return theirs.verdict
    if not theirs.verdict:  # both retryable: newest information wins
        return theirs.stored_at > mine.stored_at
    return False  # both verdicts: deterministic, keep the incumbent


def _number(record: Dict[str, object], field: str) -> float:
    """A record's ``stored_at`` or ``duration``; 0 when missing or not a
    number (a record predating the stamp counts as oldest)."""
    try:
        return float(record.get(field) or 0.0)
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
