"""Boolean encoding of STG full states.

Section 4 of the paper represents a marking of a safe Petri net by one
boolean variable per place and the full state of an STG by the vector
``y = (m, s)`` -- marking variables plus one variable per signal.  This
module owns the :class:`~repro.bdd.manager.BDDManager`, the variable
naming convention, the static variable order and the *step table*.

The step table compiles the net once.  Every variable gets an integer
id, in name order (each place variable ``p:...`` sorts before each
signal variable ``s:...``), and every transition a
:class:`TransitionStep`: its pre-only, post-only and self-loop places
as sorted ids, its signal and the value it assigns.  Once the order is
fixed, :attr:`SymbolicEncoding.levels` maps each id to its BDD level.
The ordering heuristics, the firing plans of
:class:`~repro.core.image.SymbolicImage`, the cubes of
:class:`~repro.core.charfun.CharacteristicFunctions` and of the state
checks (:mod:`repro.core.state_checks`) and the initial state all read
the table instead of re-deriving pre- and postsets, sorting names or
resolving levels one name at a time.  Since ids follow name order,
sorting ids sorts names, and FORCE breaks ties by name as the
name-based heuristic did.

Variable ordering strategies
----------------------------

``"force"`` (default)
    FORCE hypergraph heuristic (Aloul, Markov & Sakallah, GLSVLSI 2003)
    over co-occurrence groups -- the places and signal around every
    transition, which are exactly the variables of the transition's
    forward event -- keeping tightly-coupled places next to each other:
    the "appropriate heuristics" Section 6 alludes to.  FORCE starts
    from the ``"structural"`` token-flow order, not from declaration
    order, and weights each hyperedge by ``1/(|e| - 1)`` (the clique
    net model) when it averages a variable's new position, so a
    fork/join transition's wide hyperedge pulls no harder than a
    two-place one.  Saturation's cost follows each event's span from
    its top to its bottom variable (Ciardo, Lüttgen & Siminiceanu,
    TACAS 2001), which is the quantity FORCE shrinks.
``"structural"``
    Depth-first interleaving: each place variable is followed by the
    signal of the transition it feeds, approximating the token flow.
    Roots and successors are taken in name order, so the order does not
    depend on how a ``.g`` file lists its arcs.
``"declaration"``
    Places then signals, both in declaration order (a deliberately naive
    baseline for the ordering ablation benchmark).
``"signals_first"``
    All signal variables before all place variables.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Mapping, NamedTuple,
                    Optional, Tuple)

from repro import obs
from repro.bdd import BDDManager, Function
from repro.bdd.ordering import force_order, spans
from repro.petri.marking import Marking
from repro.stg.signals import STGError
from repro.stg.stg import STG

PLACE_PREFIX = "p:"
SIGNAL_PREFIX = "s:"

ORDERING_STRATEGIES = ("force", "structural", "declaration", "signals_first")


class TransitionStep(NamedTuple):
    """One transition of the step table, its variables as ids."""

    #: Places only in the preset (marked before, unmarked after).
    pre: Tuple[int, ...]
    #: Places only in the postset (unmarked before, marked after).
    post: Tuple[int, ...]
    #: Places in both (marked before and after).
    loops: Tuple[int, ...]
    #: The signal's variable, ``None`` for a transition without a label.
    signal: Optional[int]
    #: The value the firing assigns to the signal; it requires the other.
    rising: bool

    @property
    def preset(self) -> Tuple[int, ...]:
        """Every input place (the places of ``E(t)``)."""
        return self.pre + self.loops

    @property
    def postset(self) -> Tuple[int, ...]:
        """Every output place."""
        return self.post + self.loops


class SymbolicEncoding:
    """Variables, the step table and helper constructors for one STG.

    Parameters
    ----------
    stg:
        The specification to encode.  It is compiled once, so it must not
        change while the encoding is in use.
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
        self.stg = stg
        self.ordering_strategy = ordering
        self._compile()
        with obs.span("ordering", strategy=ordering) as span:
            order = self._compute_order(ordering)
            span.annotate(variables=len(order))
            if obs.active() is not None:
                events = spans(order, self._groups())
                span.annotate(event_span=(sum(events) / len(events)
                                          if events else 0.0))
        self.manager = manager if manager is not None else BDDManager()
        names = self.names
        for variable in order:
            if not self.manager.has_var(names[variable]):
                self.manager.add_var(names[variable])
        #: Variable id -> BDD level.
        self.levels: List[int] = [self.manager.level_of(name)
                                  for name in names]
        self._all_variables = [names[variable] for variable in sorted(
            range(len(names)), key=self.levels.__getitem__)]
        self._initial: Optional[Function] = None

    def _compile(self) -> None:
        """Number the variables and build the step table."""
        stg = self.stg
        net = stg.net
        places = sorted(net.places)
        signals = sorted(stg.signals)
        #: Variable id -> name, in name order.
        self.names: List[str] = ([PLACE_PREFIX + place for place in places]
                                 + [SIGNAL_PREFIX + signal
                                    for signal in signals])
        self._place_id = {place: index for index, place in enumerate(places)}
        self._signal_id = {signal: len(places) + index
                           for index, signal in enumerate(signals)}
        place_id = self._place_id
        #: Transition name -> its step, in the net's transition order.
        self.steps: Dict[str, TransitionStep] = {}
        for transition in net.transitions:
            preset = net.preset_of_transition(transition)
            postset = net.postset_of_transition(transition)
            try:
                label = stg.label_of(transition)
            except STGError:  # unlabelled transition in a plain net
                signal, rising = None, False
            else:
                signal, rising = self._signal_id[label.signal], label.is_rising
            self.steps[transition] = TransitionStep(
                tuple(sorted(map(place_id.__getitem__, preset - postset))),
                tuple(sorted(map(place_id.__getitem__, postset - preset))),
                tuple(sorted(map(place_id.__getitem__, preset & postset))),
                signal, rising)

    def place_of(self, variable: int) -> str:
        """The place a place variable id encodes."""
        return self.names[variable][len(PLACE_PREFIX):]

    def step(self, transition: str) -> TransitionStep:
        """The step-table entry of ``transition``."""
        try:
            return self.steps[transition]
        except KeyError:
            self.stg.net.transition(transition)  # raises: unknown name
            raise

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
        return list(self._all_variables)

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
    def cube(self, variables: Iterable[int], value: bool) -> Function:
        """The cube holding every variable id in ``variables`` at
        ``value``."""
        levels = self.levels
        return self.manager.cube_at((levels[variable], value)
                                    for variable in variables)

    def firing_steps(self, transition: str
                     ) -> List[Tuple[int, bool, bool]]:
        """The ``(level, require, assign)`` steps of firing
        ``transition`` forward, sorted by level: each pre-only place
        goes 1 -> 0, each post-only place 0 -> 1, each self-loop place
        stays 1 and the signal goes to the value the label assigns."""
        step = self.step(transition)
        if step.signal is None:
            self.stg.label_of(transition)  # raises: no label to fire
        levels = self.levels
        resolved = [(levels[place], True, False) for place in step.pre]
        resolved += [(levels[place], False, True) for place in step.post]
        resolved += [(levels[place], True, True) for place in step.loops]
        resolved.append((levels[step.signal], not step.rising, step.rising))
        resolved.sort()
        return resolved

    def _marking_literals(self, marking: Marking) -> Dict[str, bool]:
        return {self.place_variable(p): marking[p] > 0
                for p in self.stg.net.places}

    def _code_literals(self, values: Mapping[str, bool]) -> Dict[str, bool]:
        return {self.signal_variable(s): bool(values[s])
                for s in self.stg.signals}

    def marking_minterm(self, marking: Marking) -> Function:
        """Characteristic function of a single safe marking (places only)."""
        return self.manager.cube(self._marking_literals(marking))

    def code_minterm(self, values: Dict[str, bool]) -> Function:
        """Characteristic function of one binary code (signals only)."""
        return self.manager.cube(self._code_literals(values))

    def state_minterm(self, marking: Marking, values: Dict[str, bool]) -> Function:
        """Characteristic function of one full state ``(marking, code)``:
        one cube over the places and signals."""
        return self.manager.cube({**self._marking_literals(marking),
                                  **self._code_literals(values)})

    def initial_state(self) -> Function:
        """Characteristic function of the STG's initial full state (one
        cube, built on the first call)."""
        if self._initial is None:
            self._initial = self.state_minterm(
                self.stg.initial_marking(), self.stg.initial_state_vector())
        return self._initial

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

    def witness(self, states: Function) -> Optional[Dict[str, object]]:
        """One state of ``states``, decoded (:meth:`decode_state`), or
        ``None`` when ``states`` is empty."""
        model = states.pick_one(self._all_variables)
        return None if model is None else self.decode_state(model)

    def count_states(self, states: Function) -> int:
        """Number of full states in a characteristic function."""
        return states.sat_count(care_vars=self._all_variables)

    # ------------------------------------------------------------------
    # Ordering (over variable ids)
    # ------------------------------------------------------------------
    def _compute_order(self, strategy: str) -> List[int]:
        place_id, signal_id = self._place_id, self._signal_id
        places = [place_id[place] for place in self.stg.net.places]
        signals = [signal_id[signal] for signal in self.stg.signals]
        if strategy == "declaration":
            return places + signals
        if strategy == "signals_first":
            return signals + places
        if strategy == "structural":
            return self._structural_order()
        return force_order(self._structural_order(), self._groups())

    def _groups(self) -> List[Tuple[int, ...]]:
        """Hyperedges: the variables each transition touches, which are
        exactly the variables of its forward event."""
        return [step.pre + step.post + step.loops
                + (() if step.signal is None else (step.signal,))
                for step in self.steps.values()]

    def _structural_order(self) -> List[int]:
        """Depth-first order over the net graph, signal next to its places.

        The walk starts from the initially marked places, then sweeps the
        rest, both in place-name order; a place's output transitions and
        a transition's output places are taken in name order too.  So the
        order depends on the net and its names, not on the order a
        ``.g`` file lists its arcs.  The walk keeps an explicit stack of
        per-place generators instead of recursing, so a net of any depth
        is ordered without hitting the interpreter's recursion limit.
        """
        stg = self.stg
        steps = self.steps
        place_count = len(self._place_id)
        # Per place: its output transitions' signals and output places,
        # transitions in name order.  A place id is its name rank, so a
        # sorted tuple of ids is in name order.
        outputs: List[List[Tuple[Optional[int], Tuple[int, ...]]]] = [
            [] for _ in range(place_count)]
        for transition in sorted(steps):
            step = steps[transition]
            targets = (tuple(sorted(step.postset)) if step.loops
                       else step.post)
            for place in step.preset:
                outputs[place].append((step.signal, targets))
        order: List[int] = []
        seen = [False] * len(self.names)

        def successors(place: int) -> Iterator[int]:
            # Lazy: a transition's signal joins the order only once the
            # places reached through the previous transition are done.
            for signal, targets in outputs[place]:
                if signal is not None and not seen[signal]:
                    seen[signal] = True
                    order.append(signal)
                yield from targets

        def visit(root: int) -> None:
            stack: List[Iterator[int]] = [iter((root,))]
            while stack:
                place = next(stack[-1], None)
                if place is None:
                    stack.pop()
                    continue
                if not seen[place]:
                    seen[place] = True
                    order.append(place)
                    stack.append(successors(place))

        initial = stg.initial_marking()
        place_id = self._place_id
        for place in sorted(place_id):
            if initial[place] > 0:
                visit(place_id[place])
        for place in range(place_count):
            visit(place)
        for signal in stg.signals:
            variable = self._signal_id[signal]
            if not seen[variable]:
                seen[variable] = True
                order.append(variable)
        return order

    def __repr__(self) -> str:
        return (f"SymbolicEncoding({self.stg.name!r}, "
                f"ordering={self.ordering_strategy!r}, "
                f"variables={len(self.names)})")
