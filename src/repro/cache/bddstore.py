"""The persistent reachable-set cache: a BDD store serving sweeps.

A :class:`BDDStore` is the sibling of the sweep runner's
:class:`~repro.runner.store.RunStore`: where the RunStore persists
*results* (verdict records served as cache hits), the BDDStore persists
the expensive *intermediate* -- the reachable-state BDD of the Figure 5
traversal, serialised with :mod:`repro.bdd.serialize` -- so later runs
over the same specification skip the traversal entirely even when they
ask different questions (a different ``--checks`` selection, synthesis,
liveness extras).

The store is content-addressed: each entry is one file,
``<fingerprint>.bdd``, named by its **reachability fingerprint**
(:func:`reachable_fingerprint`), a content hash of the canonical ``.g``
text (which holds the ``.model`` name), exactly the
:class:`~repro.api.config.EngineConfig` fields the reachable set
depends on (ordering, initial-value overrides) and
:data:`BDD_SCHEMA_VERSION`.  A lookup opens that one file.  A missing
file is a plain miss -- the specification, the variable order or the
schema changed, or nothing was stored yet -- and falls back to a cold
traversal.  A file that does not parse, or whose meta records another
fingerprint, is corrupt: it warns with :class:`BDDStoreWarning`, the
caller recomputes and the put rewrites it (mirroring
:class:`~repro.runner.store.RunStoreWarning` semantics).  Every
content, including each edit of one ``.model`` name, gets its own file,
and a put reads nothing first.  Files an older store wrote under the
specification's name are never read.

**Delta re-checks** (:mod:`repro.delta`) reuse an entry for *edited*
specifications: :meth:`BDDStore.find` reads the meta line of the base's
file, which carries the base's canonical ``.g`` text, so the engine can
diff the edited STG against the base and -- for strictly monotone edits
-- seed the traversal from the stored reachable set instead of the
single initial state.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from typing import Dict, Optional, TextIO, Tuple

from repro import obs
from repro.bdd import serialize
from repro.bdd.function import Function
from repro.bdd.manager import BDDError, BDDManager
from repro.core.stats import TraversalStats
from repro.utils.journal import atomic_write

#: Bump when the store format or the fingerprint material changes
#: incompatibly; part of every fingerprint, so an older entry's file is
#: never opened.
#: 2: the meta line records the canonical ``.g`` text of the stored
#:    specification, so delta warm-starts can diff an edited STG
#:    against the base without a side channel.
#: 3: the traversal strategy left the fingerprint material: every
#:    strategy reaches the same canonical reachable BDD.
#: 4: the default ``force`` order changed (seeded with the token-flow
#:    DFS, hyperedges weighted by 1/(|e|-1)), so stored BDDs are over
#:    another variable order.
BDD_SCHEMA_VERSION = 4

FORMAT_HEADER = f"bddstore {BDD_SCHEMA_VERSION}"


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


def _warn_corrupt(path: str, error: Exception, fallback: str) -> None:
    warnings.warn(f"{path}: corrupt BDD-store entry ({error}); {fallback}",
                  BDDStoreWarning, stacklevel=3)


#: Process-wide store instances keyed by absolute directory (see
#: :meth:`BDDStore.shared`).
_SHARED_STORES: Dict[str, "BDDStore"] = {}
_SHARED_STORES_LOCK = threading.Lock()


class BDDStore:
    """Content-addressed persistent cache of serialised reachable BDDs:
    one ``<fingerprint>.bdd`` file per entry."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        # Effectiveness counters (reported by traversal consumers).
        self.hits = 0
        self.misses = 0
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

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, fingerprint + ".bdd")

    def __contains__(self, fingerprint: str) -> bool:
        return os.path.exists(self._path(fingerprint))

    # ------------------------------------------------------------------
    # The cache protocol
    # ------------------------------------------------------------------
    def lookup(self, name: str, fingerprint: str, manager: BDDManager
               ) -> Optional[Tuple[Function, TraversalStats]]:
        """Load the reachable set stored under ``fingerprint`` into
        ``manager``.

        ``name`` only documents the caller: the fingerprint covers the
        ``.g`` text, and the ``.g`` text holds the ``.model`` name.
        Returns ``(reached, stats)`` on a hit.  A missing file is a miss
        and returns ``None`` silently; a corrupt file (unparseable, or
        recording another fingerprint) warns with
        :class:`BDDStoreWarning` and returns ``None`` so the caller
        recomputes and the put rewrites it.
        """
        with obs.span("bddstore.lookup") as span:
            path = self._path(fingerprint)
            try:
                with open(path, encoding="utf-8") as handle:
                    meta = self._read_meta(handle, fingerprint)
                    reached, _ = self._load_bdd(handle, manager,
                                                require_exact_order=True)
                    stats = TraversalStats.from_dict(
                        meta.get("stats") or {})
            except FileNotFoundError:
                reached = None
            except (BDDError, ValueError, OSError) as error:
                _warn_corrupt(path, error, "falling back to a cold traversal")
                reached = None
            span.annotate(hit=reached is not None)
            if reached is None:
                self.misses += 1
                return None
            self.hits += 1
            return reached, stats

    def put(self, name: str, fingerprint: str, reached: Function,
            stats: TraversalStats, g_text: Optional[str] = None) -> None:
        """Persist one reachable set as ``<fingerprint>.bdd``
        (atomically: write-temp + rename), reading nothing first.

        ``g_text`` is the canonical specification text the fingerprint
        was computed over; storing it lets a later *delta* lookup
        (:meth:`find` + :meth:`load_entry`) diff an edited STG against
        this base without re-supplying the base source.
        """
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

        with obs.span("bddstore.put"):
            atomic_write(self._path(fingerprint), write)

    # ------------------------------------------------------------------
    # Delta warm starts (repro.delta)
    # ------------------------------------------------------------------
    def find(self, fingerprint: str) -> Optional[Tuple[str, dict]]:
        """The entry stored under ``fingerprint``, if any.

        Returns ``(path, meta)`` without deserialising the BDD section,
        so callers can read the base's canonical ``g_text`` and decide
        on a reuse tier before paying for the load.  Reads the meta of
        that one file, so it also finds entries other processes wrote.
        A missing file returns ``None`` silently; a corrupt one
        (unparseable, or recording another fingerprint) warns with
        :class:`BDDStoreWarning` and returns ``None`` too, until a put
        of the base rewrites it.
        """
        with obs.span("bddstore.find"):
            path = self._path(fingerprint)
            try:
                with open(path, encoding="utf-8") as handle:
                    return path, self._read_meta(handle, fingerprint)
            except FileNotFoundError:
                return None
            except (BDDError, ValueError, OSError) as error:
                _warn_corrupt(path, error, "delta warm-start falls back "
                              "to a cold traversal")
                return None

    def load_entry(self, path: str, manager: BDDManager
                   ) -> Optional[Tuple[Function, Tuple[str, ...]]]:
        """Deserialise the BDD of one entry file into ``manager``.

        Returns ``(reached, stored_variables)`` or ``None`` when the
        stored variables are not a subset of the manager's (an
        incompatible base) or the entry is corrupt (which warns).  Used
        by the delta warm-start path after :meth:`find` has picked the
        entry and read its meta, so the meta line is skipped, not
        decoded again.
        """
        with obs.span("bddstore.load"):
            try:
                with open(path, encoding="utf-8") as handle:
                    self._meta_payload(handle)
                    return self._load_bdd(handle, manager,
                                          require_exact_order=False)
            except (BDDError, ValueError, OSError) as error:
                _warn_corrupt(path, error, "delta warm-start falls back "
                              "to a cold traversal")
                return None

    # ------------------------------------------------------------------
    # File format helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _read_meta(handle: TextIO, fingerprint: str) -> dict:
        """The meta line of the entry stored under ``fingerprint``;
        raises :class:`BDDError` unless it records that fingerprint."""
        meta = json.loads(BDDStore._meta_payload(handle))
        if not isinstance(meta, dict):
            raise BDDError("malformed 'meta' payload")
        if meta.get("fingerprint") != fingerprint:
            raise BDDError(f"entry records fingerprint "
                           f"{meta.get('fingerprint')!r}")
        return meta

    @staticmethod
    def _meta_payload(handle: TextIO) -> str:
        """Check the header, then return the meta line's undecoded JSON."""
        header = handle.readline().strip()
        if header != FORMAT_HEADER:
            raise BDDError(f"unrecognised store header {header!r} "
                           f"(expected {FORMAT_HEADER!r})")
        tag, _, payload = handle.readline().partition(" ")
        if tag != "meta":
            raise BDDError("missing 'meta' line")
        return payload

    @staticmethod
    def _load_bdd(handle: TextIO, manager: BDDManager,
                  require_exact_order: bool
                  ) -> Optional[Tuple[Function, Tuple[str, ...]]]:
        """Load the serialised BDD section into an *existing* manager.

        Returns ``(reached, stored_variables)``.  The stored variable
        order is checked against the manager before anything is
        created: an exact-order mismatch on a hit is corruption (the
        fingerprint pins the order), while a delta seed merely requires
        the stored variables to be a subset of the manager's (returning
        ``None`` otherwise) so the load can never pollute the encoding's
        variable order.
        """
        stored = serialize.read_variables(handle)
        if require_exact_order:
            if stored != manager.variables:
                raise BDDError("stored variable order differs from the "
                               "encoding's (stale entry)")
        elif not set(stored).issubset(manager.variables):
            return None  # incompatible base: skip, do not warn
        _, roots = serialize.load(handle, manager=manager, variables=stored)
        if len(roots) != 1:
            raise BDDError(f"expected one root, found {len(roots)}")
        return roots[0], tuple(stored)
