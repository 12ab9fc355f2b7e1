"""One append-only JSON-lines journal, and atomic file replacement.

Every append-only file of the sweep fabric goes through a
:class:`Journal`: the result cache (``results.jsonl``) and the lease
table (``leases.jsonl``) both ways, the per-entry trace files on the
read side.  A journal holds one JSON object per line, appended and
never edited in place, salvaged on read and compacted by atomically
replacing the whole file.  Every line is addressed by the byte offset
it starts at: replay reports it, an append returns it, and
:meth:`Journal.read` decodes the lines at given offsets through one
handle, so a reader can index a journal by offset instead of keeping
its records.

Concurrent writers on one host coordinate through :meth:`Journal.locked`,
an exclusive ``flock`` on the sidecar file ``<path>.lock``.  A writer
that must decide from the journal's contents (may this lease be
granted?) holds the lock across *replay the tail -> decide -> append*,
so no two processes ever decide from the same state.  Cross-host
sharing (network filesystems) is out of scope.

:func:`atomic_write` is the one temp-file-then-``os.replace`` writer:
compaction uses it, and so does every other file that is rewritten
whole (BDD-store entries, metrics snapshots).
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import threading
import warnings
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    TextIO,
)

#: How many bytes before its offset a journal re-checks on each replay.
_TAIL_BYTES = 128

#: The process umask, read once at import: ``mkstemp`` creates its files
#: 0600, but a replaced file should get the mode ``open()`` would give.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(path: str, write: Callable[[TextIO], object]) -> None:
    """Replace ``path`` with the text ``write(handle)`` writes.

    The text goes to a unique temporary file in ``path``'s directory,
    which then replaces ``path`` in one ``os.replace``.  Readers see the
    old file or the new one, never a mix.  Concurrent writers of one
    path never share a temporary, and a crash leaves at worst a stray
    ``*.tmp`` file.
    """
    directory, name = os.path.split(os.path.abspath(path))
    descriptor, temporary = tempfile.mkstemp(
        prefix=name + ".", suffix=".tmp", dir=directory)
    try:
        os.fchmod(descriptor, 0o666 & ~_UMASK)
        with open(descriptor, "w", encoding="utf-8") as handle:
            write(handle)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


#: Lock descriptors this process has open.  A forked child inherits
#: them, and a ``flock`` lasts until every copy of its descriptor is
#: closed, so a child would hold its parent's lock for its whole life.
#: The at-fork hooks keep forks out of the open/close windows and close
#: the inherited copies in the child.
_lock_descriptors: Set[int] = set()
_fork_guard = threading.Lock()


def _open_lock(path: str) -> int:
    with _fork_guard:
        descriptor = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        _lock_descriptors.add(descriptor)
    return descriptor


def _close_lock(descriptor: int) -> None:
    with _fork_guard:
        _lock_descriptors.discard(descriptor)
        os.close(descriptor)


def _close_inherited_locks() -> None:
    for descriptor in _lock_descriptors:
        os.close(descriptor)
    _lock_descriptors.clear()
    _fork_guard.release()


os.register_at_fork(before=_fork_guard.acquire,
                    after_in_parent=_fork_guard.release,
                    after_in_child=_close_inherited_locks)


class Journal:
    """One append-only JSON-lines file.

    ``what`` names one record in warnings (``"result record"``) and
    ``warning`` is the category undecodable lines are reported with.
    The journal remembers how far it has read, so :meth:`replay` decodes
    only what was appended since the previous call.

    A journal other processes write must be replayed under
    :meth:`locked`: only then is an unterminated final line known to be
    torn (a writer died mid-append) rather than still being written.
    Reading a file with a single, finished writer needs no lock.
    """

    def __init__(self, path: str, what: str = "record",
                 warning: type = UserWarning) -> None:
        self.path = path
        self.what = what
        self.warning = warning
        #: Undecodable lines replayed since the file was last rewritten.
        self.skipped_lines = 0
        self._mutex = threading.RLock()
        self._holding = False
        #: The file read so far: ``(st_dev, st_ino)``, the byte offset
        #: reached in it, the bytes just before that offset, and the
        #: number of lines the offset covers.
        self._identity: Optional[tuple] = None
        self._offset = 0
        self._tail = b""
        self._lines = 0

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the journal's exclusive lock (re-entrant in one thread).

        The lock is a ``flock`` on the sidecar ``<path>.lock``, not on
        the journal: compaction replaces the journal's inode, so a lock
        on the journal itself would not exclude a writer holding the
        old one.
        """
        with self._mutex:
            if self._holding:
                yield
                return
            descriptor = _open_lock(self.path + ".lock")
            try:
                fcntl.flock(descriptor, fcntl.LOCK_EX)
                self._holding = True
                yield
            finally:
                self._holding = False
                _close_lock(descriptor)

    def replay(self, apply: Callable[[Any, int], object],
               reset: Optional[Callable[[], object]] = None) -> None:
        """Call ``apply(record, offset)`` for each record appended since
        the last replay; ``offset`` is the byte offset its line starts at.

        When the file is not the one read so far -- the first call, or
        another writer compacted it -- ``reset`` runs first and the whole
        file replays.  A line that is not JSON, or whose record ``apply``
        rejects with ``ValueError``, ``TypeError`` or ``KeyError``, is
        skipped with a warning and counted in :attr:`skipped_lines`.
        A missing file replays as empty.
        """
        with self._mutex:
            try:
                with open(self.path, "rb") as handle:
                    status = os.fstat(handle.fileno())
                    identity = (status.st_dev, status.st_ino)
                    handle.seek(self._offset - len(self._tail))
                    data = handle.read()
                    # A replaced file can reuse the old inode number, so
                    # the bytes before the offset must match as well.
                    if (identity != self._identity
                            or not data.startswith(self._tail)):
                        self._restart(identity, reset)
                        handle.seek(0)
                        data = handle.read()
                    else:
                        data = data[len(self._tail):]
            except FileNotFoundError:
                if self._identity is not None:
                    self._restart(None, reset)
                return
            offset = self._offset
            self._advance(data)
            lines = data.split(b"\n")
            if not lines[-1]:
                lines.pop()  # the newline ending the last complete line
            for line in lines:
                start, offset = offset, offset + len(line) + 1
                self._lines += 1
                if not line.strip():
                    continue
                try:
                    apply(json.loads(line), start)
                except (ValueError, TypeError, KeyError):
                    self.skipped_lines += 1
                    warnings.warn(
                        f"{self.path}:{self._lines}: skipping corrupt "
                        f"{self.what} (truncated write?)", self.warning,
                        stacklevel=3)

    def _restart(self, identity: Optional[tuple],
                 reset: Optional[Callable[[], object]]) -> None:
        self._identity = identity
        self._offset = self._lines = self.skipped_lines = 0
        self._tail = b""
        if reset is not None:
            reset()

    def _advance(self, data: bytes) -> None:
        self._offset += len(data)
        self._tail = (self._tail + data[-_TAIL_BYTES:])[-_TAIL_BYTES:]

    def append(self, record: Any) -> int:
        """Append ``record`` as one line, first ending a torn final line;
        returns the offset the new line starts at.

        Call under :meth:`locked`.  When the journal had replayed the
        whole file, the new line counts as replayed too.
        """
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._mutex, open(self.path, "a+b") as handle:
            status = os.fstat(handle.fileno())
            caught_up = ((status.st_dev, status.st_ino) == self._identity
                         and status.st_size == self._offset)
            offset = status.st_size
            if offset and os.pread(handle.fileno(), 1, offset - 1) != b"\n":
                line = b"\n" + line
                offset += 1
            handle.write(line)
            if caught_up:
                self._advance(line)
                self._lines += 1
        return offset

    def read(self, offsets: Iterable[int]) -> Iterator[Any]:
        """Decode the records whose lines start at ``offsets``, in order,
        through one handle (opened when the first record is asked for).

        Call under :meth:`locked`, after a :meth:`replay` or
        :meth:`append` reported the offsets: only the lock keeps another
        writer's compaction from moving the lines in between.
        """
        with open(self.path, "rb") as handle:
            for offset in offsets:
                handle.seek(offset)
                yield json.loads(handle.readline())

    def rewrite(self, records: Iterable[Any]) -> List[int]:
        """Atomically replace the file with ``records``, one per line;
        returns the offset of each record's line.

        This is compaction.  Call it under :meth:`locked`, after a
        :meth:`replay` that folded the tail into ``records``, or appends
        by other writers are lost.  ``records`` is consumed as the new
        file is written, so it may read them from the old one.
        """
        offsets: List[int] = []
        tail = ""

        def write(handle: TextIO) -> None:
            nonlocal tail
            size = 0
            for record in records:
                # ASCII (``ensure_ascii``), so characters are bytes.
                line = json.dumps(record, sort_keys=True) + "\n"
                handle.write(line)
                offsets.append(size)
                size += len(line)
                tail = (tail + line)[-_TAIL_BYTES:]

        with self._mutex:
            atomic_write(self.path, write)
            status = os.stat(self.path)
            self._restart((status.st_dev, status.st_ino), None)
            self._offset = status.st_size
            self._tail = tail.encode("ascii")
            self._lines = len(offsets)
        return offsets
