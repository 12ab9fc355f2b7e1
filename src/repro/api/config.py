"""The one typed engine configuration of the verification facade.

:class:`EngineConfig` replaces the kwargs soup that used to be threaded
through the CLI, :class:`~repro.runner.plan.SweepPlan` and the worker
processes as a bare engine string plus ad-hoc keyword arguments.  It is

* **frozen and hashable** -- safe as a dict key and safe to share,
* **normalised** -- arbitration places and initial-value overrides are
  stored as sorted tuples, so two configs that mean the same thing
  compare (and serialise) identically,
* **validated at construction** -- unknown engines, ordering strategies
  and traversal strategies raise :class:`~repro.api.errors.ApiError`
  immediately instead of failing deep inside a sweep,
* **serialisable** -- :meth:`to_dict` / :meth:`from_dict` round-trip
  losslessly.  The dict form is what the sweep runner pickles to worker
  processes, what `RunStore` fingerprints cache records with, and what
  ``--json`` reports embed.

Every field applies to at least one engine; fields an engine does not
use (e.g. ``ordering`` on the explicit engine) are carried but ignored,
so one config can drive either engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.api.errors import ApiError

#: Valid symbolic traversal strategies: saturation (the default),
#: Figure 5 chained, breadth-first frontier (:mod:`repro.core.traversal`).
TRAVERSAL_STRATEGIES = ("saturation", "chained", "frontier")

#: Config fields that are pure execution/observability knobs: they steer
#: *where and how fast* a verdict is computed (and whether anyone
#: watched), never *what* is computed.  Excluded from every cache
#: fingerprint (:attr:`repro.runner.plan.SweepTask.fingerprint`) and
#: stripped from client-supplied configs by the ``repro.serve`` daemon,
#: which owns its own cache directories.
EXECUTION_KNOB_FIELDS = ("timeout", "bdd_cache_dir", "trace_dir",
                         "base_fingerprint", "fault_plan",
                         "traversal_strategy")


@dataclass(frozen=True)
class EngineConfig:
    """Complete, serialisable configuration of one verification run.

    Parameters
    ----------
    engine:
        ``"symbolic"`` (the default) or ``"explicit"``
        (:data:`repro.engines.ENGINES`).
    ordering:
        BDD variable-ordering strategy (symbolic engine).
    traversal_strategy:
        ``"saturation"`` (the default), ``"chained"`` (Figure 5) or
        ``"frontier"`` (symbolic engine).  An execution knob: every
        strategy reaches the same canonical reachable BDD and closures,
        so only the cost differs.  The field is excluded from every
        fingerprint, and the ``repro.serve`` daemon strips it from
        client configs like every other knob.
    max_states:
        Enumeration budget of the explicit engine.
    initial_values:
        Optional completion/override of the initial signal values,
        honoured by **both** engines; given as a mapping, stored as a
        sorted tuple of ``(signal, value)`` pairs.
    arbitration_places:
        Places whose output/output conflicts model arbitration; validated
        against the specification's actual places by the facade.
    timeout:
        Per-entry wall-clock budget in seconds.  Each engine's ``run``
        turns it into an absolute :func:`time.monotonic` deadline
        (:func:`~repro.utils.timing.deadline_from_timeout`) when it
        starts; every symbolic fixpoint (the traversal and each closure)
        and the explicit enumeration check that deadline cooperatively
        once per iteration and raise
        :class:`~repro.utils.timing.DeadlineExceeded` past it, which the
        sweep worker reports as a ``timeout`` record.  So the budget
        holds for a direct :func:`repro.api.verify` call and on every
        sweep backend, including ``serial``, which cannot preempt an
        entry.  An execution knob: it is excluded from cache
        fingerprints.
    bdd_cache_dir:
        Directory of the persistent reachable-set cache
        (:class:`repro.cache.BDDStore`); the symbolic engine serves the
        reachable BDD from it instead of traversing when the entry's
        reachability fingerprint matches.  An execution knob like
        ``timeout``: where a run caches can never change what it
        computes, so the field is excluded from result-cache
        fingerprints.
    trace_dir:
        Directory the worker writes per-entry JSONL trace files into
        (:mod:`repro.obs`; the ``--trace`` flag).  A pure observability
        knob: like ``timeout`` and ``bdd_cache_dir`` it is excluded
        from every fingerprint, and the sweep gate proves traced and
        untraced runs emit byte-identical stable JSON.
    base_fingerprint:
        Reachability fingerprint of a *base* entry in the BDD cache to
        warm-start from when re-verifying an edited specification
        (:mod:`repro.delta`; requires ``bdd_cache_dir``).  An execution
        knob like the cache directory itself: seeding only moves where
        the traversal starts, never its fixpoint, so the field is
        excluded from every fingerprint and the sweep gate's delta leg
        proves seeded and cold runs emit byte-identical stable JSON.
    fault_plan:
        Spec string of a :class:`repro.faults.FaultPlan` -- the
        deterministic chaos dial of the lease fabric (worker crashes,
        entry hangs, store truncation, renewal stalls).  An execution
        knob like ``trace_dir``: injected faults are always recovered
        by retry, so the knob can never change what a sweep computes,
        and the sweep gate's chaos leg proves injected and clean runs
        emit byte-identical stable JSON.
    commutativity_fallback_states:
        State bound under which the symbolic engine falls back to the
        explicit commutativity check when fake conflicts are present.
    """

    engine: str = "symbolic"
    ordering: str = "force"
    traversal_strategy: str = "saturation"
    max_states: int = 1_000_000
    initial_values: Optional[Tuple[Tuple[str, bool], ...]] = None
    arbitration_places: Tuple[str, ...] = ()
    timeout: Optional[float] = None
    bdd_cache_dir: Optional[str] = None
    trace_dir: Optional[str] = None
    base_fingerprint: Optional[str] = None
    fault_plan: Optional[str] = None
    commutativity_fallback_states: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "arbitration_places",
                           tuple(sorted(self.arbitration_places)))
        if self.initial_values is not None:
            items = (self.initial_values.items()
                     if isinstance(self.initial_values, Mapping)
                     else self.initial_values)
            object.__setattr__(self, "initial_values", tuple(sorted(
                (str(signal), bool(value)) for signal, value in items)))
        self._validate()

    def _validate(self) -> None:
        from repro import engines
        from repro.core.encoding import ORDERING_STRATEGIES

        engines.get(self.engine)  # raises UnknownEngineError
        if self.ordering not in ORDERING_STRATEGIES:
            raise ApiError(
                f"unknown ordering strategy {self.ordering!r}; available: "
                f"{', '.join(ORDERING_STRATEGIES)}")
        if self.traversal_strategy not in TRAVERSAL_STRATEGIES:
            raise ApiError(
                f"unknown traversal strategy {self.traversal_strategy!r}; "
                f"available: {', '.join(TRAVERSAL_STRATEGIES)}")
        if self.max_states < 1:
            raise ApiError(f"max_states must be >= 1, "
                           f"got {self.max_states}")
        if self.timeout is not None and self.timeout <= 0:
            raise ApiError(f"timeout must be positive, got {self.timeout}")
        if self.base_fingerprint is not None and not re.fullmatch(
                r"[0-9a-f]{64}", self.base_fingerprint):
            raise ApiError(
                f"base_fingerprint must be a 64-char lowercase hex "
                f"reachability fingerprint, got {self.base_fingerprint!r}")
        if self.fault_plan is not None:
            from repro.faults import FaultSpecError, parse_fault_spec
            try:
                parse_fault_spec(self.fault_plan)
            except FaultSpecError as error:
                raise ApiError(f"bad fault_plan spec: {error}")

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def initial_values_dict(self) -> Optional[Dict[str, bool]]:
        """The initial-value overrides as a plain dict (or ``None``)."""
        if self.initial_values is None:
            return None
        return dict(self.initial_values)

    def with_overrides(self, **changes: object) -> "EngineConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    def without_execution_knobs(self) -> "EngineConfig":
        """A copy with every :data:`EXECUTION_KNOB_FIELDS` field reset.

        The semantic core of the config: two configs that agree on this
        view compute identical verdicts.  The serve daemon normalises
        client configs through it before stamping its own cache
        directories on.
        """
        defaults = {spec.name: spec.default for spec in fields(self)
                    if spec.name in EXECUTION_KNOB_FIELDS}
        return replace(self, **defaults)

    # ------------------------------------------------------------------
    # The one serialised schema (workers, cache fingerprints, --json)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Lossless, JSON-serialisable form.

        ``from_dict(to_dict(config)) == config`` holds exactly.  Sweep
        cache fingerprints are computed from this dict (minus the
        execution-knob ``timeout``), so any semantic config change -- and
        nothing else -- invalidates cached results.
        """
        return {
            "engine": self.engine,
            "ordering": self.ordering,
            "traversal_strategy": self.traversal_strategy,
            "max_states": self.max_states,
            "initial_values": self.initial_values_dict,
            "arbitration_places": list(self.arbitration_places),
            "timeout": self.timeout,
            "bdd_cache_dir": self.bdd_cache_dir,
            "trace_dir": self.trace_dir,
            "base_fingerprint": self.base_fingerprint,
            "fault_plan": self.fault_plan,
            "commutativity_fallback_states":
                self.commutativity_fallback_states,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are ignored and missing keys fall back to the field
        defaults, so configs serialised by older versions keep loading.
        """
        known = {spec.name for spec in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        if kwargs.get("initial_values") is not None:
            kwargs["initial_values"] = dict(kwargs["initial_values"])
        kwargs["arbitration_places"] = tuple(
            kwargs.get("arbitration_places") or ())
        return cls(**kwargs)
