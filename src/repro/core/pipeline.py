"""The shared symbolic verification pipeline.

Every property check of the paper needs the same expensive intermediates:
the boolean encoding of the net, the symbolic image operators and -- above
all -- the reachable-state BDD of the Figure 5 traversal.  Before this
module existed each consumer (the checker, the CLI extras, the synthesis
flow, the integration tests) rebuilt that chain from scratch, re-running
the traversal.

:class:`VerificationPipeline` computes the chain **once**, lazily, and
hands the cached intermediates to every checker:

    parse -> :class:`~repro.core.encoding.SymbolicEncoding`
          -> :class:`~repro.core.image.SymbolicImage`
          -> reachable-state BDD (one traversal)
          -> consistency / safeness / persistency / CSC / deadlock / ...

Individual property results are cached as well, so asking for the full
report after probing a single property does not repeat work.  The
symbolic engine of :mod:`repro.engines` builds one pipeline per
:func:`repro.api.run` call and runs the selected checks over it through
the shared check loop (:func:`repro.api.checks.run_checks`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro import obs
from repro.core.consistency import check_consistency
from repro.core.csc import check_csc
from repro.core.deadlock import check_deadlock_freedom, check_reversibility
from repro.core.encoding import SymbolicEncoding
from repro.core.fake_conflicts import classify_conflicts
from repro.core.image import SymbolicImage
from repro.core.persistency import (
    check_signal_persistency,
    check_transition_persistency,
)
from repro.core.reducibility import (
    check_complementary_input_sequences,
    check_determinism,
)
from repro.core.safeness import check_safeness
from repro.core.traversal import symbolic_traversal
from repro.report import ImplementabilityReport
from repro.stg.stg import STG


class VerificationPipeline:
    """One STG, one traversal, every property check.

    Parameters
    ----------
    stg:
        The specification; every signal needs an initial value (see
        :func:`repro.sg.builder.infer_initial_values`, or pass
        ``initial_values=``).
    arbitration_places:
        Places whose conflicts between non-input signals model arbitration
        and are tolerated by the persistency check (Definition 3.2
        footnote).
    ordering:
        Variable-ordering strategy of
        :class:`~repro.core.encoding.SymbolicEncoding`.
    traversal_strategy:
        The :func:`~repro.core.traversal.fixpoint` strategy of the
        traversal: ``"saturation"`` (the default), ``"chained"``
        (Figure 5) or ``"frontier"``.  The reversibility and Section 5.3
        closures always saturate.
    initial_values:
        Optional completion/override of the initial signal values (the
        STG is copied before they are applied).
    commutativity_fallback_states:
        When fake conflicts are present, commutativity can no longer be
        derived from fake-freedom (Section 5.4); if the reachable state
        count is at most this bound the explicit commutativity check runs,
        otherwise the verdict is left undecided.

    The chain properties (:attr:`encoding`, :attr:`image`, :attr:`reached`)
    and every property method are lazy and cached: the first access pays
    the cost, later accesses are free.  Check timings therefore measure
    only work that had not been triggered earlier on the same pipeline.
    """

    def __init__(self, stg: STG,
                 arbitration_places: Optional[Iterable[str]] = None,
                 ordering: str = "force",
                 traversal_strategy: str = "saturation",
                 initial_values: Optional[Dict[str, bool]] = None,
                 commutativity_fallback_states: int = 10_000,
                 deadline: Optional[float] = None) -> None:
        if initial_values:
            stg = stg.copy()
            stg.set_initial_values(initial_values)
        self.stg = stg
        self.arbitration_places = list(arbitration_places or ())
        self.ordering = ordering
        self.traversal_strategy = traversal_strategy
        self.commutativity_fallback_states = commutativity_fallback_states
        #: Cooperative per-entry deadline (absolute ``time.monotonic``
        #: instant): the traversal and the reversibility/reducibility
        #: closures check it once per fixpoint iteration and raise
        #: :class:`~repro.utils.timing.DeadlineExceeded` past it -- the
        #: timeout mechanism of non-preemptive backends.
        self.deadline = deadline
        #: Optional hooks of the persistent BDD cache
        #: (:func:`repro.cache.bind_pipeline`).  The provider may return a
        #: ``(reached, stats)`` pair to skip the traversal entirely; the
        #: consumer observes a freshly traversed result (to persist it).
        self.reached_provider = None
        self.reached_consumer = None
        #: Handle pinning warm-start nodes (loaded by a provider) live in
        #: the manager for the duration of the traversal.
        self.warm_handle = None
        #: Delta warm-start inputs (:mod:`repro.delta.warmstart`, set via
        #: the cache provider): a characteristic function of
        #: known-reachable states to seed the traversal from, the edit's
        #: added transitions, and whether the seed is closed under every
        #: other transition.  These influence where the fixpoint
        #: *starts*, never what is reported (analyzer rule RA204).
        self.seed_reached = None
        self.seed_transitions = None
        self.seed_closed = False
        #: Provenance of the delta classification (a JSON-able dict);
        #: the api facade copies it onto the report's ``delta`` block.
        self.delta_info = None
        self._encoding: Optional[SymbolicEncoding] = None
        self._image: Optional[SymbolicImage] = None
        self._reached = None
        self._traversal_stats = None
        self._results: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # The shared intermediate chain
    # ------------------------------------------------------------------
    @property
    def encoding(self) -> SymbolicEncoding:
        if self._encoding is None:
            with obs.span("encoding", ordering=self.ordering):
                self._encoding = SymbolicEncoding(self.stg,
                                                  ordering=self.ordering)
        return self._encoding

    @property
    def manager(self):
        """The BDD manager, or ``None`` while no check has built the
        encoding yet (reading it never triggers the encoding)."""
        return self._encoding.manager if self._encoding is not None else None

    @property
    def image(self) -> SymbolicImage:
        if self._image is None:
            self._image = SymbolicImage(self.encoding)
        return self._image

    @property
    def charfun(self):
        return self.image.charfun

    @property
    def reached(self):
        """The reachable-state BDD; the traversal runs at most once.

        With a bound BDD cache (:func:`repro.cache.bind_pipeline`) the
        provider is consulted first: a hit adopts the persisted reachable
        set and its traversal statistics without traversing at all, a
        miss may still warm-start the manager before the cold traversal,
        whose result the consumer then persists.
        """
        if self._reached is None:
            if self.reached_provider is not None:
                hit = self.reached_provider(self)
                if hit is not None:
                    self._reached, self._traversal_stats = hit
                    obs.event("reached-cache-hit")
                    return self._reached
            self._reached, self._traversal_stats = symbolic_traversal(
                self.encoding, image=self.image,
                strategy=self.traversal_strategy,
                seed=self.seed_reached,
                seed_transitions=self.seed_transitions,
                seed_closed=self.seed_closed,
                deadline=self.deadline)
            self.warm_handle = None  # warm nodes no longer need pinning
            self.seed_reached = None  # ditto for the delta seed
            if self.reached_consumer is not None:
                self.reached_consumer(self, self._reached,
                                      self._traversal_stats)
        return self._reached

    @property
    def traversal_stats(self):
        self.reached
        return self._traversal_stats

    @property
    def traversal_ran(self) -> bool:
        """True once some check has triggered the reachability traversal."""
        return self._reached is not None

    # ------------------------------------------------------------------
    # Property checks (each reuses the chain, each cached)
    # ------------------------------------------------------------------
    def _cached(self, key: str, compute):
        if key not in self._results:
            self._results[key] = compute()
        return self._results[key]

    def consistency(self):
        return self._cached("consistency", lambda: check_consistency(
            self.encoding, self.reached, self.charfun))

    def safeness(self):
        return self._cached("safeness", lambda: check_safeness(
            self.encoding, self.reached, self.charfun))

    def signal_persistency(self):
        return self._cached("signal_persistency",
                            lambda: check_signal_persistency(
                                self.encoding, self.reached, self.image,
                                arbitration_places=self.arbitration_places))

    def transition_persistency(self):
        return self._cached("transition_persistency",
                            lambda: check_transition_persistency(
                                self.encoding, self.reached, self.image))

    def conflicts(self):
        return self._cached("conflicts", lambda: classify_conflicts(
            self.encoding, self.reached, self.image))

    def fake_free(self) -> bool:
        return bool(self.conflicts().fake_free(self.stg))

    def csc(self):
        return self._cached("csc", lambda: check_csc(
            self.encoding, self.reached, self.charfun))

    def determinism(self):
        return self._cached("determinism", lambda: check_determinism(
            self.encoding, self.reached, self.charfun))

    def complementary_inputs(self):
        return self._cached("complementary_inputs",
                            lambda: check_complementary_input_sequences(
                                self.encoding, self.reached, self.image,
                                deadline=self.deadline))

    def deadlock_freedom(self):
        return self._cached("deadlock_freedom", lambda: check_deadlock_freedom(
            self.encoding, self.reached, self.charfun))

    def reversibility(self):
        return self._cached("reversibility", lambda: check_reversibility(
            self.encoding, self.reached, self.image, deadline=self.deadline))

    def commutativity(self) -> Optional[bool]:
        """Commutativity via fake-freedom, with an explicit fallback.

        Section 5.4: a fake-free STG is commutative, so no further work is
        needed in the common case.  With fake conflicts present the
        property is genuinely per-state; the explicit check is run when
        the state count is small enough, otherwise the verdict stays
        undecided (``None``).
        """
        return self._cached("commutativity", self._compute_commutativity)

    def _compute_commutativity(self) -> Optional[bool]:
        if self.fake_free():
            return True
        if self.traversal_stats.num_states > self.commutativity_fallback_states:
            return None
        from repro.sg.builder import build_state_graph
        from repro.sg.reducibility import check_commutativity

        result = build_state_graph(
            self.stg, max_states=self.commutativity_fallback_states)
        return check_commutativity(result.graph, self.stg).commutative

    # ------------------------------------------------------------------
    # Check application (the symbolic side of the repro.api check registry)
    # ------------------------------------------------------------------
    def _check_consistency(self, report: ImplementabilityReport) -> None:
        self.reached  # the traversal itself belongs to this check's phase
        consistency = self.consistency()
        report.bounded = True  # safe-semantics traversal always terminates
        report.consistent = consistency.consistent
        report.add_verdict("bounded (safe semantics)", True)
        report.add_verdict("consistent state assignment",
                           consistency.consistent,
                           [f"signal {s}" for s in consistency.violating_signals])

    def _check_safeness(self, report: ImplementabilityReport) -> None:
        safeness = self.safeness()
        report.safe = safeness.safe
        report.add_verdict("safeness", safeness.safe,
                           [str(safeness)] if not safeness.safe else [])

    def _check_persistency(self, report: ImplementabilityReport) -> None:
        signal_persistency = self.signal_persistency()
        transition_persistency = self.transition_persistency()
        report.output_persistent = signal_persistency.persistent
        report.add_verdict("signal persistency", signal_persistency.persistent,
                           [str(v) for v in signal_persistency.violations[:5]])
        report.add_verdict("transition persistency",
                           transition_persistency.persistent,
                           [str(v) for v in transition_persistency.violations[:5]])

    def _check_fake_conflicts(self, report: ImplementabilityReport) -> None:
        conflicts = self.conflicts()
        report.fake_free = conflicts.fake_free(self.stg)
        report.add_verdict(
            "fake-conflict freedom", bool(report.fake_free),
            [f"symmetric fake conflict ({c.first}, {c.second})"
             for c in conflicts.symmetric_fake[:3]]
            + [f"asymmetric fake conflict ({c.first}, {c.second})"
               for c in conflicts.asymmetric_fake[:3]])

    def _check_csc(self, report: ImplementabilityReport) -> None:
        csc = self.csc()
        report.csc = csc.csc
        report.usc = csc.usc
        report.add_verdict("complete state coding (CSC)", csc.csc,
                           [f"signal {s}" for s in csc.violating_signals])
        report.add_verdict("unique state coding (USC)", csc.usc)

    def _check_reducibility(self, report: ImplementabilityReport) -> None:
        determinism = self.determinism()
        complementary = self.complementary_inputs()
        report.deterministic = determinism.deterministic
        report.complementary_free = complementary.free
        report.commutative = self.commutativity()
        report.add_verdict("determinism", determinism.deterministic,
                           [f"{a} / {b}" for a, b in determinism.violating_pairs])
        report.add_verdict(
            "CSC-reducibility", bool(report.csc_reducible),
            [f"mutually complementary input sequences for "
             f"{', '.join(complementary.offending_signals)}"]
            if complementary.offending_signals else [])

    def _check_liveness(self, report: ImplementabilityReport) -> None:
        deadlocks = self.deadlock_freedom()
        reversibility = self.reversibility()
        report.deadlock_free = deadlocks.deadlock_free
        report.reversible = reversibility.reversible
        report.add_verdict("deadlock freedom", deadlocks.deadlock_free,
                           [str(deadlocks)] if not deadlocks.deadlock_free
                           else [])
        report.add_verdict("reversibility", reversibility.reversible,
                           [str(reversibility)]
                           if not reversibility.reversible else [])
