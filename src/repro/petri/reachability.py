"""Explicit reachability analysis.

This is the classical enumeration the paper's symbolic approach replaces.
It remains important for two reasons: it is the baseline against which the
benchmarks compare, and it is the oracle the test suite uses to validate
the symbolic engine on every net that is small enough to enumerate.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.petri.marking import Marking
from repro.petri.net import PetriNet, PetriNetError


class BoundViolation(PetriNetError):
    """Raised when exploration exceeds a requested bound or state budget."""


class ReachabilityGraph:
    """Explicit reachability graph of a Petri net.

    Vertices are :class:`~repro.petri.marking.Marking` objects; edges are
    labelled with the fired transition.
    """

    def __init__(self, net: PetriNet, initial: Marking) -> None:
        self.net = net
        self.initial = initial
        self._successors: Dict[Marking, List[Tuple[str, Marking]]] = {}

    # Construction (used by the builder) --------------------------------
    def _add_marking(self, marking: Marking) -> None:
        self._successors.setdefault(marking, [])

    def _add_edge(self, source: Marking, transition: str, target: Marking) -> None:
        self._successors.setdefault(source, []).append((transition, target))
        self._successors.setdefault(target, [])

    # Queries ------------------------------------------------------------
    @property
    def markings(self) -> List[Marking]:
        """All reachable markings (insertion order: BFS order)."""
        return list(self._successors)

    @property
    def num_markings(self) -> int:
        return len(self._successors)

    @property
    def num_edges(self) -> int:
        return sum(len(edges) for edges in self._successors.values())

    def successors(self, marking: Marking) -> List[Tuple[str, Marking]]:
        """Outgoing edges of a marking as ``(transition, successor)`` pairs."""
        try:
            return list(self._successors[marking])
        except KeyError as exc:
            raise PetriNetError(f"marking not in the graph: {marking!r}") from exc

    def max_tokens(self) -> int:
        """The largest token count observed on any place in any marking."""
        return max((m.max_tokens() for m in self._successors), default=0)

    def __repr__(self) -> str:
        return (f"ReachabilityGraph(markings={self.num_markings}, "
                f"edges={self.num_edges})")


def build_reachability_graph(net: PetriNet,
                             initial: Optional[Marking] = None,
                             max_markings: Optional[int] = None,
                             bound: Optional[int] = None) -> ReachabilityGraph:
    """Breadth-first construction of the reachability graph.

    Parameters
    ----------
    net:
        The Petri net to explore.
    initial:
        Starting marking (defaults to ``net.initial_marking``).
    max_markings:
        Abort with :class:`BoundViolation` when more markings than this are
        discovered -- protection against unbounded nets and state explosion.
    bound:
        Abort with :class:`BoundViolation` as soon as a marking exceeds this
        token bound per place (e.g. ``bound=1`` aborts on unsafe markings).

    Returns
    -------
    ReachabilityGraph
    """
    start = net.initial_marking if initial is None else initial
    graph = ReachabilityGraph(net, start)
    graph._add_marking(start)
    queue = deque([start])
    visited: Set[Marking] = {start}
    while queue:
        current = queue.popleft()
        if bound is not None and current.max_tokens() > bound:
            raise BoundViolation(
                f"marking exceeds the {bound}-bound: {current!r}")
        for transition in net.enabled_transitions(current):
            successor = net.fire(transition, current)
            graph._add_edge(current, transition, successor)
            if successor not in visited:
                visited.add(successor)
                if max_markings is not None and len(visited) > max_markings:
                    raise BoundViolation(
                        f"more than {max_markings} reachable markings")
                queue.append(successor)
    return graph
