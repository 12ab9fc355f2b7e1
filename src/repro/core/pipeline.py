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
from repro.core.conflicts import check_conflict_pairs
from repro.core.csc import check_csc
from repro.core.deadlock import (
    DeadlockResult,
    ReversibilityResult,
    check_deadlock_freedom,
    check_reversibility,
)
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.reducibility import check_complementary_input_sequences
from repro.core.state_checks import StateChecks, check_state_cubes
from repro.core.traversal import symbolic_traversal
from repro.petri.structure import is_live_reversible_marked_graph
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
    def reached(self):
        """The reachable-state BDD; the traversal runs at most once.

        With a bound BDD cache (:func:`repro.cache.bind_pipeline`) the
        provider is consulted first: a hit adopts the persisted reachable
        set and its traversal statistics without traversing at all, a
        miss may still seed the traversal from a delta base, and the
        consumer then persists the traversal's result.
        """
        if self._reached is None:
            if self.reached_provider is not None:
                hit = self.reached_provider(self)
                if hit is not None:
                    self._reached, self._traversal_stats = hit
                    obs.event("reached-cache-hit")
                    return self._reached
            self._reached, self._traversal_stats = symbolic_traversal(
                self.image, strategy=self.traversal_strategy,
                seed=self.seed_reached,
                seed_transitions=self.seed_transitions,
                seed_closed=self.seed_closed,
                deadline=self.deadline)
            self.seed_reached = None  # the seed is no longer needed
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

    def state_checks(self) -> StateChecks:
        """Consistency, safeness and determinism, from one walk over the
        reachable set (:mod:`repro.core.state_checks`); the first of the
        three asked pays for all of them."""
        return self._cached("state_checks", self._walk_state_cubes)

    def _walk_state_cubes(self) -> StateChecks:
        encoding, reached = self.encoding, self.reached
        with obs.span("state_checks", manager=encoding.manager):
            return check_state_cubes(encoding, reached)

    def consistency(self):
        return self.state_checks().consistency

    def safeness(self):
        return self.state_checks().safeness

    def conflict_pairs(self):
        """Transition and signal persistency and the fake-conflict
        classification, from one pass over the conflict pairs."""
        return self._cached("conflict_pairs", lambda: check_conflict_pairs(
            self.image, self.reached,
            arbitration_places=self.arbitration_places))

    def fake_free(self) -> bool:
        return bool(self.conflict_pairs().conflicts.fake_free(self.stg))

    def csc(self):
        return self._cached("csc", lambda: check_csc(
            self.encoding, self.reached, self.traversal_stats.num_states))

    def determinism(self):
        return self.state_checks().determinism

    def complementary_inputs(self):
        return self._cached("complementary_inputs",
                            lambda: check_complementary_input_sequences(
                                self.image, self.reached,
                                self.csc().contradictions,
                                deadline=self.deadline))

    def deadlock_freedom(self):
        """Deadlock freedom, read off reversibility where that decides it.

        A reversible specification whose initial state enables a
        transition is deadlock-free (the argument is in
        :mod:`repro.core.deadlock`); only the others run
        :func:`~repro.core.deadlock.check_deadlock_freedom`, which counts
        the deadlocks and picks the witness.
        """
        return self._cached("deadlock_freedom", self._compute_deadlock_freedom)

    def _compute_deadlock_freedom(self):
        net = self.stg.net
        if (self.reversibility().reversible
                and net.enabled_transitions(net.initial_marking)):
            return DeadlockResult(True)
        return check_deadlock_freedom(self.encoding, self.reached)

    def reversibility(self):
        """Reversibility, read off the net's structure where that decides it.

        :func:`~repro.petri.structure.is_live_reversible_marked_graph`
        proves a marked graph live and reversible as a net.  The symbolic
        state space is a different object: a state is a marking with one
        boolean per place plus a code, and the firing rule of
        :mod:`repro.core.image` refuses two kinds of firing.  It refuses
        ``a+`` when ``a = 1`` (and ``a-`` when ``a = 0``), and it refuses
        a firing that would mark a post-only place already holding a
        token.  Two guards close the gap:

        * When consistency and safeness hold, no reachable state meets
          either case (each check looks for exactly those states), and
          the initial marking is safe
          (:func:`~repro.core.state_checks.check_state_cubes` fails
          safeness on an initial count above one).  So every reachable
          state fires whatever its marking enables, and the symbolic
          markings are exactly the net's markings.
        * The code returns with the marking.  From a reachable state
          the net fires some sequence back to the initial marking, and
          the symbolic engine follows it.  The whole cycle from the
          initial state (it fires every transition of a component
          equally often) ends at the initial marking, so the engine can
          fire it again and again, and each pass moves signal ``a`` by
          the same amount: its ``a+`` firings minus its ``a-`` firings.
          ``a+`` fires only from ``a = 0`` and ``a-`` only from ``a =
          1``, so ``a`` stays 0 or 1 and the amount is 0.

        Without the consistency guard the shortcut is wrong: on
        ``broken_double_rise`` and ``inconsistent`` the structure passes
        but the closure finds stranded states.  Every spec that fails a
        guard runs :func:`~repro.core.deadlock.check_reversibility`, so
        every failing verdict and count still comes from the symbolic
        closure.
        """
        return self._cached("reversibility", self._compute_reversibility)

    def _compute_reversibility(self):
        if (is_live_reversible_marked_graph(self.stg.net)
                and self.consistency().consistent and self.safeness().safe):
            return ReversibilityResult(True)
        return check_reversibility(self.image, self.reached,
                                   deadline=self.deadline)

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
            self.stg, max_states=self.commutativity_fallback_states,
            deadline=self.deadline)
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
        pairs = self.conflict_pairs()
        signal_persistency = pairs.signal_persistency
        transition_persistency = pairs.transition_persistency
        report.output_persistent = signal_persistency.persistent
        report.add_verdict("signal persistency", signal_persistency.persistent,
                           [str(v) for v in signal_persistency.violations[:5]])
        report.add_verdict("transition persistency",
                           transition_persistency.persistent,
                           [str(v) for v in transition_persistency.violations[:5]])

    def _check_fake_conflicts(self, report: ImplementabilityReport) -> None:
        conflicts = self.conflict_pairs().conflicts
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
