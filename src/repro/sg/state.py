"""States and state graphs.

A *full state* pairs a Petri-net marking with a binary signal code
(Section 3: "Each vertex in such a graph is labelled by a pair
(marking, state)").  Projecting every vertex onto its code component gives
the State Graph proper; this module keeps the full version because the
symbolic encoding of the paper does the same (the state vector
``y = (m, s)``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Tuple

from repro.petri.marking import Marking


@dataclass(frozen=True)
class State:
    """A full state: a marking plus the binary code of all signals.

    ``code`` is stored as a frozenset of the signal names that are at 1
    (so states hash and compare cheaply); use :meth:`value_of` or
    :meth:`code_vector` for dictionary-style access.
    """

    marking: Marking
    high_signals: FrozenSet[str]

    @staticmethod
    def make(marking: Marking, values: Dict[str, bool]) -> "State":
        """Build a state from a marking and a ``{signal: value}`` dict."""
        return State(marking, frozenset(s for s, v in values.items() if v))

    def value_of(self, signal: str) -> bool:
        """Value of one signal in this state."""
        return signal in self.high_signals

    def code_vector(self, signals: List[str]) -> Tuple[int, ...]:
        """The binary code as a tuple following ``signals`` order."""
        return tuple(1 if s in self.high_signals else 0 for s in signals)

    def code_string(self, signals: List[str]) -> str:
        """The binary code as a string, e.g. ``"0110"``."""
        return "".join(str(bit) for bit in self.code_vector(signals))

    def with_signal(self, signal: str, value: bool) -> "State":
        """Copy of the state with one signal forced to ``value``."""
        high = set(self.high_signals)
        if value:
            high.add(signal)
        else:
            high.discard(signal)
        return State(self.marking, frozenset(high))

    def __repr__(self) -> str:
        high = ",".join(sorted(self.high_signals)) or "-"
        return f"State(high=[{high}], marking={self.marking!r})"


class StateGraph:
    """The full state graph of an STG.

    Vertices are :class:`State` objects, edges are labelled with the fired
    Petri-net transition name.  The graph is built by
    :func:`repro.sg.builder.build_state_graph`.
    """

    def __init__(self, stg, initial: State) -> None:
        self.stg = stg
        self.initial = initial
        self._successors: Dict[State, List[Tuple[str, State]]] = {initial: []}

    # Construction -------------------------------------------------------
    def _add_edge(self, source: State, transition: str, target: State) -> None:
        self._successors.setdefault(source, []).append((transition, target))
        self._successors.setdefault(target, [])

    # Queries -------------------------------------------------------------
    @property
    def states(self) -> List[State]:
        """All reachable full states (BFS order)."""
        return list(self._successors)

    @property
    def num_states(self) -> int:
        return len(self._successors)

    @property
    def num_edges(self) -> int:
        return sum(len(edges) for edges in self._successors.values())

    def successors(self, state: State) -> List[Tuple[str, State]]:
        """Outgoing edges of a state as ``(transition, successor)`` pairs."""
        return list(self._successors[state])

    def edges(self) -> Iterator[Tuple[State, str, State]]:
        for source, outgoing in self._successors.items():
            for transition, target in outgoing:
                yield source, transition, target

    def enabled_transitions(self, state: State) -> List[str]:
        """Labelled transitions enabled at a state (by its marking)."""
        return self.stg.net.enabled_transitions(state.marking)

    def enabled_signals(self, state: State) -> FrozenSet[str]:
        """Signals with an enabled transition at a state."""
        return frozenset(self.stg.signal_of(t)
                         for t in self.enabled_transitions(state))

    def enabled_noninput_signals(self, state: State) -> FrozenSet[str]:
        """Enabled signals that the circuit must produce (outputs/internal)."""
        return frozenset(s for s in self.enabled_signals(state)
                         if not self.stg.is_input(s))

    def distinct_codes(self) -> int:
        """Number of distinct binary codes over all states."""
        return len({state.high_signals for state in self._successors})

    def states_by_code(self) -> Dict[FrozenSet[str], List[State]]:
        """Group the states by their binary code."""
        groups: Dict[FrozenSet[str], List[State]] = {}
        for state in self._successors:
            groups.setdefault(state.high_signals, []).append(state)
        return groups

    def deadlocks(self) -> List[State]:
        """States without outgoing edges."""
        return [s for s, edges in self._successors.items() if not edges]

    def unreturnable(self) -> List[State]:
        """States from which the initial state cannot be reached again.

        A reverse breadth-first search from the initial state; the graph
        is reversible (the initial state is a home state) iff this is
        empty.
        """
        predecessors: Dict[State, List[State]] = {
            state: [] for state in self._successors}
        for source, _, target in self.edges():
            predecessors[target].append(source)
        returning = {self.initial}
        queue = deque([self.initial])
        while queue:
            for source in predecessors[queue.popleft()]:
                if source not in returning:
                    returning.add(source)
                    queue.append(source)
        return [s for s in self._successors if s not in returning]

    def __repr__(self) -> str:
        return f"StateGraph(states={self.num_states}, edges={self.num_edges})"


@dataclass
class ConsistencyViolation:
    """One consistency violation observed while building the state graph.

    The transition ``transition`` fired (or was enabled) at ``state`` while
    the signal already had the value the transition is supposed to
    establish (Definition 3.1).
    """

    state: State
    transition: str
    signal: str
    expected_before: bool

    def __str__(self) -> str:
        actual = 0 if self.expected_before else 1
        return (f"transition {self.transition} enabled while {self.signal}="
                f"{actual} (inconsistent)")
