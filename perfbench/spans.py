"""Span recording for the traced run, kept in the benchmark's own files.

A :class:`Tracer` records one span around each call into a layer:
name, parent, start and end in integer nanoseconds, and -- when the
call works on a BDD manager -- the manager's ``cache_stats()`` lookups
and hits and its ``num_nodes`` before and after.  A span's self time is
its duration minus its children's durations, and its self counts are its
counts minus its children's, so summing self values over every span
never counts work twice.

Times are integers, which makes the attribution exact: per pass, the
self times of all spans plus the time no span covers equal the pass's
wall time to the nanosecond (:meth:`Tracer.end_pass` asserts it).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

COUNT_KEYS = ("lookups", "hits", "nodes")


def bdd_counts(manager) -> Dict[str, int]:
    stats = manager.cache_stats()
    return {"lookups": stats["lookups"], "hits": stats["hits"],
            "nodes": manager.num_nodes}


class Span:
    __slots__ = ("name", "parent", "root", "measured", "start", "end",
                 "child_ns", "counts", "child_counts", "extra")

    def __init__(self, name: str, parent: Optional["Span"],
                 measured: bool) -> None:
        self.name = name
        self.parent = parent
        #: Name of the outermost span this one runs under (itself when
        #: top-level): a replayed request's class for serve spans.
        self.root = parent.root if parent is not None else name
        self.measured = measured
        self.start = self.end = self.child_ns = 0
        self.counts: Optional[Dict[str, int]] = None
        self.child_counts = dict.fromkeys(COUNT_KEYS, 0)
        self.extra: Dict[str, int] = {}

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    def record(self, **counts: int) -> None:
        """Set inclusive BDD counts measured by the caller (used where
        the manager only exists once the call returns)."""
        self.counts = {key: int(counts[key]) for key in COUNT_KEYS}

    def self_counts(self) -> Dict[str, int]:
        if self.counts is None:
            return {}
        return {key: self.counts[key] - self.child_counts[key]
                for key in COUNT_KEYS}


@dataclass
class PassRecord:
    """Self times and counts of one traced pass."""

    wall_ns: int
    unattributed_ns: int
    self_ns: Dict[str, int]
    counts: Dict[str, Dict[str, int]]
    #: Every span's duration, keyed by (root span name, span name).
    durations_ns: Dict[Tuple[str, str], List[int]] = field(
        default_factory=dict)


class Tracer:
    """Records spans between :meth:`begin_pass` and :meth:`end_pass`."""

    enabled = True

    def __init__(self) -> None:
        self._stack: List[Span] = []
        self._spans: List[Span] = []
        self._pass_start = 0

    def begin_pass(self) -> None:
        self._spans = []
        self._pass_start = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, manager=None):
        before = bdd_counts(manager) if manager is not None else None
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, measured=before is not None)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            if before is not None:
                after = bdd_counts(manager)
                span.counts = {key: after[key] - before[key]
                               for key in COUNT_KEYS}
            if parent is not None:
                parent.child_ns += span.duration_ns
            if span.counts is not None:
                # Counts roll up to the nearest ancestor that measures a
                # manager itself; unmeasured spans keep no self counts.
                ancestor = parent
                while ancestor is not None and not ancestor.measured:
                    ancestor = ancestor.parent
                if ancestor is not None:
                    for key in COUNT_KEYS:
                        ancestor.child_counts[key] += span.counts[key]
            self._spans.append(span)

    def end_pass(self) -> PassRecord:
        wall = time.perf_counter_ns() - self._pass_start
        if self._stack:
            raise RuntimeError("end_pass with open spans: "
                               + ", ".join(s.name for s in self._stack))
        self_ns: Dict[str, int] = defaultdict(int)
        counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: dict.fromkeys(COUNT_KEYS, 0))
        durations: Dict[Tuple[str, str], List[int]] = defaultdict(list)
        top_level = 0
        for span in self._spans:
            self_ns[span.name] += span.duration_ns - span.child_ns
            durations[span.root, span.name].append(span.duration_ns)
            if span.parent is None:
                top_level += span.duration_ns
            bucket = counts[span.name]
            for key, value in span.self_counts().items():
                bucket[key] += value
            for key, value in span.extra.items():
                bucket[key] = bucket.get(key, 0) + value
        unattributed = wall - top_level
        if sum(self_ns.values()) + unattributed != wall:
            raise AssertionError(
                f"attribution broken: self times {sum(self_ns.values())} "
                f"+ unattributed {unattributed} != wall {wall} ns")
        self._spans = []
        return PassRecord(wall_ns=wall, unattributed_ns=unattributed,
                          self_ns=dict(self_ns), counts=dict(counts),
                          durations_ns=dict(durations))


class NullTracer:
    """Same interface, records nothing: the untraced baseline path."""

    enabled = False

    def begin_pass(self) -> None:
        self._pass_start = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, manager=None):
        yield _NullSpan()

    def end_pass(self) -> PassRecord:
        return PassRecord(wall_ns=time.perf_counter_ns() - self._pass_start,
                          unattributed_ns=0, self_ns={}, counts={})


class _NullSpan:
    __slots__ = ("extra",)

    def __init__(self) -> None:
        self.extra: Dict[str, int] = {}

    def record(self, **counts: int) -> None:
        pass
