"""Boolean encoding of STG full states.

Section 4 of the paper represents a marking of a safe Petri net by one
boolean variable per place and the full state of an STG by the vector
``y = (m, s)`` -- marking variables plus one variable per signal.  This
module owns the :class:`~repro.bdd.manager.BDDManager`, the variable
naming convention and the static variable order.

Variable ordering strategies
----------------------------

``"force"`` (default)
    FORCE hypergraph heuristic over co-occurrence groups (the places and
    signal around every transition), which keeps tightly-coupled places
    next to each other -- the "appropriate heuristics" Section 6 alludes
    to.
``"structural"``
    Depth-first interleaving: each place variable is followed by the
    signal of the transition it feeds, approximating the token flow.
``"declaration"``
    Places then signals, both in declaration order (a deliberately naive
    baseline for the ordering ablation benchmark).
``"signals_first"``
    All signal variables before all place variables.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bdd import BDDManager, Function
from repro.bdd.ordering import force_ordering
from repro.petri.marking import Marking
from repro.stg.stg import STG

PLACE_PREFIX = "p:"
SIGNAL_PREFIX = "s:"

ORDERING_STRATEGIES = ("force", "structural", "declaration", "signals_first")


class SymbolicEncoding:
    """Variables and helper constructors for one STG.

    Parameters
    ----------
    stg:
        The specification to encode.
    ordering:
        One of :data:`ORDERING_STRATEGIES`.
    manager:
        Optionally, an existing manager to reuse (its variables must not
        clash with the encoding's names).
    """

    def __init__(self, stg: STG, ordering: str = "force",
                 manager: Optional[BDDManager] = None) -> None:
        if ordering not in ORDERING_STRATEGIES:
            raise ValueError(f"unknown ordering strategy {ordering!r}; "
                             f"choose from {ORDERING_STRATEGIES}")
        from repro import obs

        self.stg = stg
        self.ordering_strategy = ordering
        with obs.span("ordering", strategy=ordering) as span:
            order = self._compute_order(ordering)
            span.annotate(variables=len(order))
        self.manager = manager if manager is not None else BDDManager()
        for name in order:
            if name not in self.manager.variables:
                self.manager.add_var(name)

    # ------------------------------------------------------------------
    # Variable names
    # ------------------------------------------------------------------
    @staticmethod
    def place_variable(place: str) -> str:
        """BDD variable name encoding a place."""
        return f"{PLACE_PREFIX}{place}"

    @staticmethod
    def signal_variable(signal: str) -> str:
        """BDD variable name encoding a signal value."""
        return f"{SIGNAL_PREFIX}{signal}"

    @property
    def place_variables(self) -> List[str]:
        """All place variable names (declaration order of the net)."""
        return [self.place_variable(p) for p in self.stg.net.places]

    @property
    def signal_variables(self) -> List[str]:
        """All signal variable names (declaration order of the STG)."""
        return [self.signal_variable(s) for s in self.stg.signals]

    @property
    def all_variables(self) -> List[str]:
        """Place and signal variables, in the manager's order."""
        mine = set(self.place_variables) | set(self.signal_variables)
        return [name for name in self.manager.variables if name in mine]

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def place(self, place: str) -> Function:
        """Projection function of a place variable."""
        self.stg.net.place(place)
        return self.manager.var(self.place_variable(place))

    def signal(self, signal: str) -> Function:
        """Projection function of a signal variable."""
        self.stg.kind_of(signal)
        return self.manager.var(self.signal_variable(signal))

    # ------------------------------------------------------------------
    # Constructors for sets of states
    # ------------------------------------------------------------------
    def marking_minterm(self, marking: Marking) -> Function:
        """Characteristic function of a single safe marking (places only)."""
        literals = {self.place_variable(p): marking[p] > 0
                    for p in self.stg.net.places}
        return self.manager.cube(literals)

    def code_minterm(self, values: Dict[str, bool]) -> Function:
        """Characteristic function of one binary code (signals only)."""
        literals = {self.signal_variable(s): bool(values[s])
                    for s in self.stg.signals}
        return self.manager.cube(literals)

    def state_minterm(self, marking: Marking, values: Dict[str, bool]) -> Function:
        """Characteristic function of one full state ``(marking, code)``."""
        return self.marking_minterm(marking) & self.code_minterm(values)

    def initial_state(self) -> Function:
        """Characteristic function of the STG's initial full state."""
        return self.state_minterm(self.stg.initial_marking(),
                                  self.stg.initial_state_vector())

    # ------------------------------------------------------------------
    # Decoding (for counter-examples and tests)
    # ------------------------------------------------------------------
    def decode_state(self, assignment: Dict[str, bool]) -> Dict[str, object]:
        """Turn a satisfying assignment into ``{"marking":..., "code":...}``."""
        marking = Marking({
            place: 1 for place in self.stg.net.places
            if assignment.get(self.place_variable(place), False)})
        code = {signal: bool(assignment.get(self.signal_variable(signal), False))
                for signal in self.stg.signals}
        return {"marking": marking, "code": code}

    def count_states(self, states: Function) -> int:
        """Number of full states in a characteristic function."""
        return states.sat_count(care_vars=self.all_variables)

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def _compute_order(self, strategy: str) -> List[str]:
        stg = self.stg
        places = [self.place_variable(p) for p in stg.net.places]
        signals = [self.signal_variable(s) for s in stg.signals]
        if strategy == "declaration":
            return places + signals
        if strategy == "signals_first":
            return signals + places
        if strategy == "structural":
            return self._structural_order()
        return self._force_order()

    def _co_occurrence_groups(self) -> List[List[str]]:
        """Hyperedges: the variables touched by each transition.

        Pre/post-sets are hash-ordered sets; the members are sorted so the
        FORCE accumulator sums its floats in a fixed order.  Without this
        the computed variable order -- and with it every traversal
        statistic -- varies between interpreter processes
        (PYTHONHASHSEED), which would break the cross-machine
        byte-identity contract of the sweep runner's stable results.
        """
        groups: List[List[str]] = []
        stg = self.stg
        for transition in stg.net.transitions:
            group = [self.place_variable(p)
                     for p in sorted(stg.net.preset_of_transition(transition))]
            group += [self.place_variable(p)
                      for p in sorted(stg.net.postset_of_transition(transition))]
            try:
                label = stg.label_of(transition)
            except Exception:  # unlabelled transition in a plain net
                label = None
            if label is not None:
                group.append(self.signal_variable(label.signal))
            groups.append(group)
        return groups

    def _force_order(self) -> List[str]:
        variables = ([self.place_variable(p) for p in self.stg.net.places]
                     + [self.signal_variable(s) for s in self.stg.signals])
        return force_ordering(variables, self._co_occurrence_groups())

    def _structural_order(self) -> List[str]:
        """Depth-first order over the net graph, signal next to its places."""
        stg = self.stg
        order: List[str] = []
        seen = set()

        def visit_place(place: str) -> None:
            variable = self.place_variable(place)
            if variable in seen:
                return
            seen.add(variable)
            order.append(variable)
            for transition in sorted(stg.net.postset_of_place(place)):
                try:
                    signal_variable = self.signal_variable(
                        stg.signal_of(transition))
                except Exception:
                    signal_variable = None
                if signal_variable is not None and signal_variable not in seen:
                    seen.add(signal_variable)
                    order.append(signal_variable)
                for successor in sorted(stg.net.postset_of_transition(transition)):
                    visit_place(successor)

        # Start from initially marked places, then cover the rest.
        initial = stg.initial_marking()
        for place in stg.net.places:
            if initial[place] > 0:
                visit_place(place)
        for place in stg.net.places:
            visit_place(place)
        for signal in stg.signals:
            variable = self.signal_variable(signal)
            if variable not in seen:
                seen.add(variable)
                order.append(variable)
        return order

    def __repr__(self) -> str:
        return (f"SymbolicEncoding({self.stg.name!r}, "
                f"ordering={self.ordering_strategy!r}, "
                f"variables={len(self.all_variables)})")
