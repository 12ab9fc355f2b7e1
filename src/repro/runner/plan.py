"""Sweep planning: which specifications to check, how, and in which shard.

A :class:`SweepPlan` is the declarative half of the runner subsystem: it
selects benchmark-corpus entries and/or scalable-family scale ranges,
fixes the engine configuration as one typed
:class:`~repro.api.config.EngineConfig`, and carries the execution knobs
(worker count, shard spec).  :meth:`SweepPlan.tasks` expands the plan
into a deterministic list of self-contained :class:`SweepTask` objects --
plain picklable data (name, canonical ``.g`` text, engine config,
expected verdicts) that a worker process can execute without any access
to the registry, and whose content :attr:`~SweepTask.fingerprint` keys
the persistent :class:`~repro.runner.store.RunStore` cache.

This module contains no engine knowledge: the config is an opaque
:class:`EngineConfig` (validated at construction) and workers execute it
through :func:`repro.api.run`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.config import EXECUTION_KNOB_FIELDS, EngineConfig

#: Bump when the worker result schema changes incompatibly; part of every
#: task fingerprint, so a schema change invalidates old cache records.
#: (2: engine configuration serialised as EngineConfig.to_dict();
#:  3: the check selection joined the fingerprint material -- a sweep
#:     running a ``--checks`` subset computes different verdicts;
#:  4: report dicts render the derived classification explicitly --
#:     including the ``partial`` verdict of subset runs -- so records
#:     written by older schemas would not be byte-identical.
#:  5: delta warm-starts made the path-dependent traversal statistics
#:     (iterations, images, peak nodes) volatile -- they left the stable
#:     view, and reports grew the ``delta`` provenance block.
#:  6: ``traversal_strategy`` became an execution knob -- every strategy
#:     reaches the same canonical BDD -- and left the config material.
#:  7: the default ``force`` variable order changed, so records carry
#:     other ``final_nodes``, and an unsafe specification is classified
#:     not implementable.)
SCHEMA_VERSION = 7


class PlanError(ValueError):
    """An invalid sweep plan (bad shard spec, unknown family, ...)."""


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """Round-robin partition ``index``/``count`` of the task list.

    Task ``k`` (in plan order) belongs to shard ``k % count``; the
    ``count`` shards are therefore disjoint and jointly cover the sweep,
    and every shard sees a representative mix of cheap and expensive
    entries (corpus order interleaves the families).
    """

    index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise PlanError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise PlanError(
                f"shard index must be in [0, {self.count}), got {self.index}")

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse an ``index/count`` spec like ``0/8`` (as on the CLI)."""
        index_text, slash, count_text = text.partition("/")
        try:
            if not slash:
                raise ValueError
            return cls(index=int(index_text), count=int(count_text))
        except ValueError:
            raise PlanError(
                f"invalid shard spec {text!r}; expected INDEX/COUNT, "
                f"e.g. 0/8") from None

    def owns(self, position: int) -> bool:
        return position % self.count == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
def normalise_expected(expected: Mapping[str, object]) -> Dict[str, object]:
    """JSON-stable form of an expected-verdict mapping.

    ``classification`` values are stored as their string form so the
    mapping round-trips through worker pipes and the JSONL cache;
    :func:`repro.corpus.mismatches_against` compares classifications via
    ``str`` for exactly this reason.
    """
    normalised: Dict[str, object] = {}
    for key, value in expected.items():
        normalised[key] = str(value) if key == "classification" else value
    return normalised


@dataclass(frozen=True)
class SweepTask:
    """One self-contained unit of sweep work (picklable, JSON-able).

    ``config`` is the complete engine configuration; its serialised form
    travels to the worker, which replays it through
    :func:`repro.api.run`.  ``delay`` is a testing/benchmarking hook: the
    worker sleeps that many seconds before checking, which lets the
    timeout and scheduling paths be exercised deterministically without a
    pathological specification.
    """

    name: str
    g_text: str
    config: EngineConfig = field(default_factory=EngineConfig)
    expected: Mapping[str, object] = field(default_factory=dict)
    delay: float = 0.0
    #: Property-check selection the worker runs (``None`` = every check
    #: the engine supports, the historical sweep behaviour).  Part of the
    #: fingerprint: a subset run computes genuinely different verdicts.
    checks: Optional[Tuple[str, ...]] = None
    #: Execution provenance (backend, shard) stamped by the runner just
    #: before dispatch so the worker's trace records carry it.  Pure
    #: observability: not part of the fingerprint, never in stable
    #: views.
    provenance: Mapping[str, str] = field(default_factory=dict)

    @property
    def engine(self) -> str:
        return self.config.engine

    @property
    def timeout(self):
        return self.config.timeout

    @property
    def fingerprint(self) -> str:
        """Content hash keying the persistent result cache.

        Covers everything that determines the verdict: the canonical
        ``.g`` text, the engine configuration
        (:meth:`~repro.api.config.EngineConfig.to_dict`, minus the
        :data:`~repro.api.config.EXECUTION_KNOB_FIELDS`), the check
        selection, the expected metadata the mismatch check runs
        against, and the result schema version.  Execution knobs
        (timeout, delay, BDD-cache directory, trace directory,
        traversal strategy) deliberately do not participate: where and
        how fast a verdict is computed -- and whether anyone watched --
        never changes the verdict.
        """
        config = self.config.to_dict()
        for knob in EXECUTION_KNOB_FIELDS:
            config.pop(knob, None)
        material = json.dumps(
            {"schema": SCHEMA_VERSION, "g_text": self.g_text,
             "config": config,
             "checks": list(self.checks) if self.checks is not None else None,
             "expected": normalise_expected(self.expected)},
            sort_keys=True)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def to_payload(self) -> Dict[str, object]:
        """The dict shipped to a worker process."""
        return {
            "name": self.name,
            "g_text": self.g_text,
            "config": self.config.to_dict(),
            "expected": normalise_expected(self.expected),
            "fingerprint": self.fingerprint,
            "delay": self.delay,
            "checks": list(self.checks) if self.checks is not None else None,
            "provenance": dict(self.provenance),
        }


def corpus_task(name: str, config: EngineConfig,
                checks: Optional[Sequence[str]] = None) -> SweepTask:
    """The task of one registered corpus entry under ``config``.

    The text, the arbitration places (which replace ``config``'s) and
    the normalised expected verdicts all come from the registry entry.
    :class:`SweepPlan` expansion and the ``repro.serve`` daemon both
    build corpus tasks here, so a daemon request and a ``batch-check``
    run of the same entry share one fingerprint -- the RunStore key and
    the stable verdict -- by construction.
    """
    from repro import corpus

    entry = corpus.entry(name)
    return SweepTask(
        name=entry.name,
        g_text=entry.g_text,
        config=replace(config,
                       arbitration_places=tuple(entry.arbitration_places)),
        expected=normalise_expected(entry.expected),
        checks=tuple(checks) if checks is not None else None)


# ----------------------------------------------------------------------
# Family scale ranges
# ----------------------------------------------------------------------
def parse_family_spec(text: str) -> Tuple[str, List[int]]:
    """Parse a ``FAMILY:SCALES`` CLI spec into ``(family, scales)``.

    ``SCALES`` is a single scale (``muller_pipeline:6``) or an inclusive
    range (``random_ring:1-40``).
    """
    name, colon, scales_text = text.partition(":")
    if not colon or not name or not scales_text:
        raise PlanError(
            f"invalid family spec {text!r}; expected FAMILY:SCALE or "
            f"FAMILY:LO-HI, e.g. random_ring:1-40")
    low_text, dash, high_text = scales_text.partition("-")
    try:
        low = int(low_text)
        high = int(high_text) if dash else low
    except ValueError:
        raise PlanError(
            f"invalid scale range {scales_text!r} in family spec "
            f"{text!r}") from None
    if high < low:
        raise PlanError(f"empty scale range {scales_text!r} in {text!r}")
    return name, list(range(low, high + 1))


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass
class SweepPlan:
    """Declarative description of one corpus sweep.

    ``names`` selects corpus entries (empty = the whole corpus);
    ``families`` adds scalable-family instances as ``(family, scales)``
    pairs on top, which is how a sweep scales to hundreds of entries
    without registering each one.  ``config`` is the engine
    configuration shared by every task -- except that each task's
    ``arbitration_places`` are taken from its registry metadata (the
    entry knows its own arbitration points).  Expansion order is
    deterministic (corpus registration order, then families in the given
    order), so shard partitions and result ordering are stable across
    runs.
    """

    names: Sequence[str] = ()
    families: Sequence[Tuple[str, Sequence[int]]] = ()
    config: EngineConfig = field(default_factory=EngineConfig)
    #: Property-check selection shared by every task (``None`` = every
    #: check the engine supports); validated by the CLI / facade before
    #: expansion.  Subset sweeps batch the selected checks over the
    #: shared intermediates of each entry's one pipeline.
    checks: Optional[Sequence[str]] = None
    jobs: int = 1
    shard: ShardSpec = field(default_factory=ShardSpec)
    #: Execution backend name (see :mod:`repro.runner.backends`);
    #: ``None`` leaves the choice to the runner (``process`` by
    #: default).  An execution knob like ``jobs``: deliberately not part
    #: of task fingerprints -- verdicts do not depend on who executes.
    backend: Optional[str] = None
    _expanded: Optional[List[SweepTask]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise PlanError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def engine(self) -> str:
        return self.config.engine

    def tasks(self) -> List[SweepTask]:
        """Expand the plan into the full (unsharded) task list.

        The expansion is computed once and memoised (callers get a copy),
        so driving both materialisation and execution off one plan does
        not rebuild every instance.  Invalid family names and scales
        surface as :class:`PlanError` here -- CLI callers expand inside
        their usage-error handler.
        """
        if self._expanded is None:
            self._expanded = self._expand()
        return list(self._expanded)

    def _expand(self) -> List[SweepTask]:
        from repro import corpus
        from repro.stg.writer import to_g_string

        checks = tuple(self.checks) if self.checks is not None else None
        tasks = [corpus_task(name, self.config, checks)
                 for name in (self.names or corpus.names())]
        for family_name, scales in self.families:
            try:
                family = corpus.family(family_name)
            except corpus.UnknownFamilyError as error:
                raise PlanError(str(error)) from None
            for scale in scales:
                try:
                    stg, arbitration = family.instantiate(scale)
                except ValueError as error:
                    raise PlanError(
                        f"family {family.name!r} rejected scale {scale}: "
                        f"{error}") from None
                tasks.append(SweepTask(
                    name=f"{family.name}@{scale}",
                    g_text=to_g_string(stg),
                    config=replace(self.config,
                                   arbitration_places=tuple(arbitration)),
                    expected=normalise_expected(family.expected),
                    checks=checks))
        return tasks

    def shard_tasks(self) -> List[SweepTask]:
        """The slice of :meth:`tasks` owned by this plan's shard."""
        return [task for position, task in enumerate(self.tasks())
                if self.shard.owns(position)]
