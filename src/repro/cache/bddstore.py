"""The persistent reachable-set cache: a BDD store serving sweeps.

A :class:`BDDStore` is the sibling of the sweep runner's
:class:`~repro.runner.store.RunStore`: where the RunStore persists
*results* (verdict records served as cache hits), the BDDStore persists
the expensive *intermediate* -- the reachable-state BDD of the Figure 5
traversal, serialised with :mod:`repro.bdd.serialize` -- so later runs
over the same specification skip the traversal entirely even when they
ask different questions (a different ``--checks`` selection, synthesis,
liveness extras).

Each entry is one file per specification name, stamped with a
**reachability fingerprint** (:func:`reachable_fingerprint`): a content
hash of the canonical ``.g`` text plus exactly the
:class:`~repro.api.config.EngineConfig` fields the reachable set depends
on (ordering, initial-value overrides).  A lookup whose fingerprint does
not match -- the specification changed, the
variable order changed -- is a miss and falls back to a cold traversal;
a corrupt file warns with :class:`BDDStoreWarning` and recomputes
(mirroring :class:`~repro.runner.store.RunStoreWarning` semantics).

**Delta re-checks** (:mod:`repro.delta`) reuse an entry for *edited*
specifications: :meth:`BDDStore.find` locates a base entry by
fingerprint and schema-2 entries carry the base's canonical ``.g`` text
in their meta line, so the engine can diff the edited STG against the
base and -- for strictly monotone edits -- seed the traversal from the
stored reachable set instead of the single initial state.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import warnings
from typing import Dict, Optional, TextIO, Tuple

from repro.bdd import serialize
from repro.bdd.function import Function
from repro.bdd.manager import BDDError, BDDManager
from repro.core.stats import TraversalStats
from repro.utils.journal import atomic_write

#: Bump when the store format or the fingerprint material changes
#: incompatibly; part of every fingerprint, so old entries invalidate.
#: 2: the meta line records the canonical ``.g`` text of the stored
#:    specification, so delta warm-starts can diff an edited STG
#:    against the base without a side channel.
#: 3: the traversal strategy left the fingerprint material: every
#:    strategy reaches the same canonical reachable BDD.
BDD_SCHEMA_VERSION = 3

FORMAT_HEADER = f"bddstore {BDD_SCHEMA_VERSION}"

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.@-]")


class BDDStoreWarning(UserWarning):
    """A non-fatal BDD-store problem (e.g. a corrupt entry recomputed)."""


def reachable_fingerprint(g_text: str, config) -> str:
    """Content hash keying one persisted reachable set.

    Covers exactly what the reachable BDD depends on: the canonical
    ``.g`` text and the reachability-relevant
    :class:`~repro.api.config.EngineConfig` fields.  Check selection,
    arbitration places, timeouts, the traversal strategy and the cache
    directory itself are deliberately excluded -- they change what is
    *asked about* the reachable set, or how fast it is computed, never
    the set (or its BDD) itself.
    """
    material = json.dumps({
        "schema": BDD_SCHEMA_VERSION,
        "g_text": g_text,
        "ordering": config.ordering,
        "initial_values": config.initial_values_dict,
    }, sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


#: Process-wide store instances keyed by absolute directory (see
#: :meth:`BDDStore.shared`).
_SHARED_STORES: Dict[str, "BDDStore"] = {}
_SHARED_STORES_LOCK = threading.Lock()


class BDDStore:
    """File-per-entry persistent cache of serialised reachable BDDs."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        # Effectiveness counters (reported by traversal consumers).
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        # Delta re-check outcomes, by reuse tier (see repro.delta).
        self.delta_hits = 0
        self.delta_seeds = 0
        self.delta_colds = 0

    @classmethod
    def shared(cls, directory: str) -> "BDDStore":
        """The process-wide store instance of ``directory``.

        Every consumer of the same cache directory -- each entry of an
        in-process sweep, every request of the ``repro.serve`` daemon --
        gets the *same* object, so the effectiveness counters
        aggregate across runs (the daemon's warm-repeat tests and
        ``/metrics`` read exactly these).  Safe to share: lookups
        deserialise into the caller's own manager and writes are
        atomic temp-file renames, so concurrent users never observe a
        half-written entry; the counters are diagnostics, not verdict
        material.
        """
        key = os.path.abspath(directory)
        with _SHARED_STORES_LOCK:
            store = _SHARED_STORES.get(key)
            if store is None:
                store = _SHARED_STORES[key] = cls(key)
            return store

    def _path(self, name: str) -> str:
        return os.path.join(self.directory,
                            _SAFE_NAME.sub("_", name) + ".bdd")

    def _alt_path(self, name: str, fingerprint: str) -> str:
        """The overflow entry of a (name, fingerprint) pair.

        Edited specifications usually keep their base's ``.model`` name,
        so one name legitimately maps to several live contents in an
        editor loop.  The first content keeps the primary ``name.bdd``
        path; later different-content puts land here instead of
        evicting the base entry a delta re-check is about to ask for.
        """
        return os.path.join(
            self.directory,
            f"{_SAFE_NAME.sub('_', name)}-{fingerprint[:12]}.bdd")

    def __contains__(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    # ------------------------------------------------------------------
    # The cache protocol
    # ------------------------------------------------------------------
    def lookup(self, name: str, fingerprint: str, manager: BDDManager
               ) -> Optional[Tuple[Function, TraversalStats]]:
        """Load the persisted reachable set of ``name`` into ``manager``.

        Returns ``(reached, stats)`` on a hit.  Misses (no entry, or a
        fingerprint recorded under a different specification content /
        engine config) return ``None`` silently; corrupt entries warn
        with :class:`BDDStoreWarning` and return ``None`` so the caller
        recomputes.
        """
        path = self._path(name)
        if not os.path.exists(path):
            self.misses += 1
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                meta = self._read_meta(handle, path)
                if meta.get("name") != name:
                    raise BDDError(
                        f"entry records name {meta.get('name')!r}, "
                        f"expected {name!r}")
                if meta.get("fingerprint") != fingerprint:
                    # Another content owns the primary path; an editor
                    # loop may have parked this one on its overflow
                    # path (see :meth:`_alt_path`).
                    alternate = self._alt_path(name, fingerprint)
                    if os.path.exists(alternate):
                        return self._lookup_file(alternate, name,
                                                 fingerprint, manager)
                    # Content or engine config changed: a plain
                    # invalidation, not corruption.
                    self.invalidations += 1
                    self.misses += 1
                    return None
                reached = self._load_bdd(handle, manager, path,
                                         require_exact_order=True)
                stats = TraversalStats.from_dict(meta.get("stats") or {})
        except (BDDError, ValueError, OSError) as error:
            warnings.warn(
                f"{path}: corrupt BDD-store entry ({error}); falling "
                f"back to a cold traversal", BDDStoreWarning,
                stacklevel=2)
            self.misses += 1
            return None
        self.hits += 1
        return reached, stats

    def _lookup_file(self, path: str, name: str, fingerprint: str,
                     manager: BDDManager
                     ) -> Optional[Tuple[Function, TraversalStats]]:
        """:meth:`lookup` semantics against one specific entry file."""
        try:
            with open(path, encoding="utf-8") as handle:
                meta = self._read_meta(handle, path)
                if (meta.get("name") != name
                        or meta.get("fingerprint") != fingerprint):
                    self.invalidations += 1
                    self.misses += 1
                    return None
                reached = self._load_bdd(handle, manager, path,
                                         require_exact_order=True)
                stats = TraversalStats.from_dict(meta.get("stats") or {})
        except (BDDError, ValueError, OSError) as error:
            warnings.warn(
                f"{path}: corrupt BDD-store entry ({error}); falling "
                f"back to a cold traversal", BDDStoreWarning,
                stacklevel=2)
            self.misses += 1
            return None
        self.hits += 1
        return reached, stats

    def put(self, name: str, fingerprint: str, reached: Function,
            stats: TraversalStats, g_text: Optional[str] = None) -> None:
        """Persist one reachable set (atomically: write-temp + rename).

        ``g_text`` is the canonical specification text the fingerprint
        was computed over; storing it lets a later *delta* lookup
        (:meth:`find` + :meth:`load_entry`) diff an edited STG against
        this base without re-supplying the base source.

        When the primary ``{name}.bdd`` file already holds a *different*
        fingerprint, the new entry goes to its overflow path
        (:meth:`_alt_path`) instead of evicting it -- in an editor loop
        the edited spec usually keeps the base's ``.model`` name, and
        clobbering the base entry would turn every subsequent re-check
        cold.  An unreadable primary is overwritten as before.
        """
        path = self._path(name)
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as handle:
                    existing = self._read_meta(handle, path)
            except (BDDError, ValueError, OSError):
                existing = None  # corrupt primary: reclaim it
            if existing is not None and \
                    existing.get("fingerprint") != fingerprint:
                path = self._alt_path(name, fingerprint)
        meta = {
            "name": name,
            "fingerprint": fingerprint,
            "stats": stats.to_dict(),
            "stored_at": time.time(),
        }
        if g_text is not None:
            meta["g_text"] = g_text

        def write(handle: TextIO) -> None:
            handle.write(FORMAT_HEADER + "\n")
            handle.write("meta " + json.dumps(meta, sort_keys=True) + "\n")
            serialize.dump([reached], handle)

        atomic_write(path, write)

    # ------------------------------------------------------------------
    # Delta warm starts (repro.delta)
    # ------------------------------------------------------------------
    def find(self, fingerprint: str) -> Optional[Tuple[str, dict]]:
        """Locate the entry stored under ``fingerprint``, if any.

        Returns ``(path, meta)`` without deserialising the BDD section,
        so callers can read the base's canonical ``g_text`` and decide
        on a reuse tier before paying for the load.  Corrupt entries
        are skipped silently (a later :meth:`lookup` of the same file
        will warn).
        """
        try:
            entries = sorted(os.listdir(self.directory))
        except OSError:
            return None
        for filename in entries:
            if not filename.endswith(".bdd"):
                continue
            path = os.path.join(self.directory, filename)
            try:
                with open(path, encoding="utf-8") as handle:
                    meta = self._read_meta(handle, path)
            except (BDDError, ValueError, OSError):
                continue
            if meta.get("fingerprint") == fingerprint:
                return path, meta
        return None

    def load_entry(self, path: str, manager: BDDManager
                   ) -> Optional[Tuple[Function, Tuple[str, ...]]]:
        """Deserialise the BDD of one entry file into ``manager``.

        Returns ``(reached, stored_variables)`` or ``None`` when the
        stored variables are not a subset of the manager's (an
        incompatible base) or the entry is corrupt (which warns).  Used
        by the delta warm-start path after :meth:`find` has picked the
        entry and read its meta.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                self._read_meta(handle, path)
                position = handle.tell()
                handle.readline()  # serialize header
                vars_line = handle.readline().split()
                if not vars_line or vars_line[0] != "vars":
                    raise BDDError("missing 'vars' line")
                stored = tuple(vars_line[1:])
                handle.seek(position)
                loaded = self._load_bdd(handle, manager, path,
                                        require_exact_order=False)
        except (BDDError, ValueError, OSError) as error:
            warnings.warn(
                f"{path}: corrupt BDD-store entry ({error}); delta "
                f"warm-start falls back to a cold traversal",
                BDDStoreWarning, stacklevel=2)
            return None
        if loaded is None:
            return None
        return loaded, stored

    # ------------------------------------------------------------------
    # File format helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _read_meta(handle: TextIO, path: str) -> dict:
        header = handle.readline().strip()
        if header != FORMAT_HEADER:
            raise BDDError(f"unrecognised store header {header!r} "
                           f"(expected {FORMAT_HEADER!r})")
        meta_line = handle.readline()
        tag, _, payload = meta_line.partition(" ")
        if tag != "meta":
            raise BDDError("missing 'meta' line")
        meta = json.loads(payload)
        if not isinstance(meta, dict):
            raise BDDError("malformed 'meta' payload")
        return meta

    @staticmethod
    def _load_bdd(handle: TextIO, manager: BDDManager, path: str,
                  require_exact_order: bool) -> Optional[Function]:
        """Load the serialised BDD section into an *existing* manager.

        The stored variable order is checked against the manager before
        anything is created: an exact-order mismatch on a hit is
        corruption (the fingerprint pins the order), while a delta seed
        merely requires the stored variables to be a subset of the
        manager's (returning ``None`` otherwise) so the load can never
        pollute the encoding's variable order.
        """
        position = handle.tell()
        serialize_header = handle.readline()  # validated by serialize.load
        vars_line = handle.readline().split()
        if not vars_line or vars_line[0] != "vars":
            raise BDDError("missing 'vars' line")
        stored = vars_line[1:]
        if require_exact_order:
            if stored != manager.variables:
                raise BDDError("stored variable order differs from the "
                               "encoding's (stale entry)")
        elif not set(stored).issubset(manager.variables):
            return None  # incompatible base: skip, do not warn
        del serialize_header
        handle.seek(position)
        _, roots = serialize.load(handle, manager=manager)
        if len(roots) != 1:
            raise BDDError(f"expected one root, found {len(roots)}")
        return roots[0]
