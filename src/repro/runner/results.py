"""Result objects of the sweep runner.

:class:`EntryResult` is the per-task outcome: the full serialised
:class:`~repro.report.ImplementabilityReport`, the traversal statistics,
the expected-metadata mismatches and the execution status.  It exists in
exactly one schema -- :meth:`EntryResult.to_dict` -- which is what worker
processes ship over their result pipe, what the
:class:`~repro.runner.store.RunStore` persists as JSONL, and what the
CLI's ``--json`` report emits.

:class:`SweepResult` aggregates the ordered entry results of one sweep
with the counts the CLI summarises and the determinism digest the tests
compare across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.report import ImplementabilityReport

#: Execution statuses an entry can end in.  ``ok``/``mismatch`` carry a
#: full report; ``error``/``timeout`` carry a message instead.
STATUSES = ("ok", "mismatch", "error", "timeout")

#: Traversal-statistics fields that vary with execution circumstances
#: (wall clock, manager working set, operation-cache state, warm and
#: delta-seeded starts) rather than with the verdict; stripped from
#: :meth:`EntryResult.stable_dict` so stable JSON stays byte-identical
#: across backends, machines and BDD-cache states.  ``iterations``,
#: ``images_computed`` and ``peak_nodes`` joined the list with the delta
#: warm-starts of :mod:`repro.delta`: a seeded traversal walks a
#: different path to the *same* canonical fixpoint, so only the
#: fixpoint-derived fields (states, final nodes, variables) stay stable.
VOLATILE_TRAVERSAL_FIELDS = ("wall_time_s", "peak_live_nodes",
                             "cache_lookups", "cache_hits",
                             "iterations", "images_computed", "peak_nodes")


@dataclass
class EntryResult:
    """Outcome of one sweep task."""

    name: str
    status: str
    engine: str
    fingerprint: str
    report: Optional[Dict[str, object]] = None
    traversal: Optional[Dict[str, int]] = None
    mismatches: List[str] = field(default_factory=list)
    error: Optional[str] = None
    duration: float = 0.0
    #: True when this result was served from the RunStore instead of
    #: being recomputed (never persisted as True: the cache stores the
    #: original computation).
    cached: bool = False
    #: Execution provenance stamped by the runner -- which backend and
    #: shard computed this result.  Persisted with the record and kept
    #: through :meth:`~repro.runner.store.RunStore.merge`, so a report
    #: assembled from N shard stores still says where each entry ran.
    #: Excluded from :meth:`stable_dict` (provenance, like timing, must
    #: not break cross-backend byte-identity).
    provenance: Optional[Dict[str, str]] = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown entry status {self.status!r}")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def display_status(self) -> str:
        """The status tag the CLI prints (``cached`` marks provenance).

        Only ``ok`` results can be cached: the store never serves error
        or timeout records, and cached mismatches print ``MISMATCH``.
        """
        if self.status == "ok":
            return "cached" if self.cached else "ok"
        return self.status.upper()

    def report_object(self) -> Optional[ImplementabilityReport]:
        """The deserialised report (``None`` for error/timeout results)."""
        if self.report is None:
            return None
        return ImplementabilityReport.from_dict(self.report)

    # ------------------------------------------------------------------
    # The one schema (pipes, JSONL cache, --json report)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "engine": self.engine,
            "fingerprint": self.fingerprint,
            "report": dict(self.report) if self.report is not None else None,
            "traversal": (dict(self.traversal)
                          if self.traversal is not None else None),
            "mismatches": list(self.mismatches),
            "error": self.error,
            "duration": self.duration,
            "cached": self.cached,
            "provenance": (dict(self.provenance)
                           if self.provenance is not None else None),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EntryResult":
        return cls(
            name=str(data["name"]),
            status=str(data["status"]),
            engine=str(data["engine"]),
            fingerprint=str(data["fingerprint"]),
            report=data.get("report"),
            traversal=data.get("traversal"),
            mismatches=list(data.get("mismatches") or []),
            error=data.get("error"),
            duration=float(data.get("duration") or 0.0),
            cached=bool(data.get("cached", False)),
            provenance=data.get("provenance"))

    def stable_dict(self) -> Dict[str, object]:
        """The timing-free view: identical across worker counts and cache
        states for the same task content (the determinism contract the
        runner tests pin)."""
        data = self.to_dict()
        del data["duration"]
        del data["cached"]
        del data["provenance"]
        if data["report"] is not None:
            data["report"] = dict(data["report"])
            data["report"]["timings"] = None
            # Path-dependent / provenance report fields (see
            # VOLATILE_TRAVERSAL_FIELDS on peak nodes; ``delta`` is
            # execution provenance by construction).
            data["report"]["bdd_peak_nodes"] = None
            data["report"]["delta"] = None
        if data["traversal"] is not None:
            data["traversal"] = {
                key: value for key, value in data["traversal"].items()
                if key not in VOLATILE_TRAVERSAL_FIELDS}
        return data


@dataclass
class SweepResult:
    """Ordered outcome of one sweep (one shard's worth of tasks)."""

    engine: str
    jobs: int
    shard: str
    #: Name of the execution backend that ran the sweep (``merge`` for
    #: reports assembled from merged shard stores; each entry's
    #: ``provenance`` then records the backend that actually computed it).
    backend: str = "process"
    results: List[EntryResult] = field(default_factory=list)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def _count(self, status: str) -> int:
        return sum(1 for result in self.results if result.status == status)

    @property
    def matching(self) -> int:
        return self._count("ok")

    @property
    def mismatching(self) -> int:
        return self._count("mismatch")

    @property
    def errors(self) -> int:
        """Entries that produced no verdict (worker error or timeout)."""
        return self._count("error") + self._count("timeout")

    @property
    def cached(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def succeeded(self) -> bool:
        return self.mismatching == 0 and self.errors == 0

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "jobs": self.jobs,
            "shard": self.shard,
            "backend": self.backend,
            "total": len(self.results),
            "matching": self.matching,
            "mismatching": self.mismatching,
            "errors": self.errors,
            "cached": self.cached,
            "entries": [result.to_dict() for result in self.results],
        }

    def stable_json_dict(self) -> Dict[str, object]:
        """Timing-free view for determinism comparisons (see
        :meth:`EntryResult.stable_dict`); also independent of ``jobs``,
        ``backend`` and cache state -- the cross-backend and shard-merge
        byte-identity contract the tests and the CI gate compare."""
        return {
            "engine": self.engine,
            "shard": self.shard,
            "entries": [result.stable_dict() for result in self.results],
        }
