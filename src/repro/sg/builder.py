"""Construction of the full state graph and initial-value inference."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.petri.marking import Marking
from repro.petri.reachability import build_reachability_graph
from repro.stg.signals import STGError
from repro.stg.stg import STG
from repro.sg.state import ConsistencyViolation, State, StateGraph
from repro.utils.timing import check_deadline


class StateGraphResult:
    """Outcome of :func:`build_state_graph`.

    Attributes
    ----------
    graph:
        The full state graph (contains every state reached, including the
        successors of inconsistent firings -- the signal value is simply
        overwritten, following Definition 3.1's edge conditions).
    consistency_violations:
        Every ``(state, transition)`` where firing the transition would
        violate the consistent state assignment.
    truncated:
        True when exploration stopped because ``max_states`` was hit.
    """

    def __init__(self, graph: StateGraph,
                 violations: List[ConsistencyViolation],
                 truncated: bool) -> None:
        self.graph = graph
        self.consistency_violations = violations
        self.truncated = truncated

    @property
    def consistent(self) -> bool:
        """True when no consistency violation was recorded."""
        return not self.consistency_violations


def build_state_graph(stg: STG,
                      initial_values: Optional[Dict[str, bool]] = None,
                      max_states: Optional[int] = 1_000_000,
                      deadline: Optional[float] = None
                      ) -> StateGraphResult:
    """Breadth-first construction of the full state graph of an STG.

    Parameters
    ----------
    stg:
        The specification.  Every signal must have an initial value, either
        declared on the STG or passed through ``initial_values``.
    initial_values:
        Overrides / completes the initial signal values.
    max_states:
        Exploration budget; ``None`` means unlimited.
    deadline:
        Optional absolute :func:`time.monotonic` instant checked
        cooperatively per dequeued state
        (:class:`~repro.utils.timing.DeadlineExceeded` past it) -- the
        explicit engine's counterpart of the symbolic traversal's
        per-iteration check.
    """
    values = dict(stg.initial_values)
    if initial_values:
        values.update(initial_values)
    missing = [s for s in stg.signals if s not in values]
    if missing:
        raise STGError(
            f"initial values unknown for signals {missing}; pass "
            f"initial_values= or use infer_initial_values()")

    initial = State.make(stg.initial_marking(), values)
    graph = StateGraph(stg, initial)
    violations: List[ConsistencyViolation] = []
    queue = deque([initial])
    visited: Set[State] = {initial}
    truncated = False
    while queue:
        check_deadline(deadline, "explicit state-graph enumeration")
        state = queue.popleft()
        for transition in stg.net.enabled_transitions(state.marking):
            label = stg.label_of(transition)
            before = state.value_of(label.signal)
            expected_before = not label.target_value
            if before != expected_before:
                violations.append(ConsistencyViolation(
                    state, transition, label.signal, expected_before))
            next_marking = stg.net.fire(transition, state.marking)
            successor = State(
                next_marking,
                state.with_signal(label.signal, label.target_value).high_signals)
            graph._add_edge(state, transition, successor)
            if successor not in visited:
                if max_states is not None and len(visited) >= max_states:
                    truncated = True
                    continue
                visited.add(successor)
                queue.append(successor)
    return StateGraphResult(graph, violations, truncated)


def infer_initial_values(stg: STG) -> Dict[str, bool]:
    """Infer initial signal values from the first observed transitions.

    Implements the simple scheme of Section 5.1: start with every signal
    unknown ("don't care"); as soon as a reachable marking enables some
    ``a+`` the signal ``a`` must have been 0 initially (and symmetrically
    for ``a-``), provided the STG is consistent.  Signals whose transitions
    are never enabled default to 0.

    The inference walks markings in BFS order, so the *first* enabling
    encountered decides; for a consistent STG any enabling of the signal
    gives the same answer.  Already-declared initial values are kept.
    The walk raises :class:`~repro.petri.reachability.BoundViolation`
    past 100,000 markings.
    """
    values: Dict[str, bool] = dict(stg.initial_values)
    unknown = {s for s in stg.signals if s not in values}
    if not unknown:
        return values
    reach = build_reachability_graph(stg.net, max_markings=100_000)
    # BFS order is preserved by ReachabilityGraph.markings.
    for marking in reach.markings:
        if not unknown:
            break
        for transition in stg.net.enabled_transitions(marking):
            label = stg.label_of(transition)
            if label.signal in unknown:
                # a+ enabled somewhere reachable => a was 0 at that state;
                # trace the parity of changes back to the initial state is
                # not needed for consistent STGs built from the initial
                # marking: the number of fired transitions of the signal on
                # any path to this marking has fixed parity, and the paper's
                # scheme simply back-annotates the initial value.
                values[label.signal] = _initial_value_from_first_enabling(
                    stg, reach, label.signal)
                unknown.discard(label.signal)
    # Sorted: ``values`` insertion order must not leak set order.
    for signal in sorted(unknown):
        values[signal] = False
    return values


def _initial_value_from_first_enabling(stg: STG, reach, signal: str) -> bool:
    """Initial value of ``signal`` derived by parity along a shortest path.

    Finds the BFS-first marking enabling a transition of ``signal`` and
    counts how many transitions of the same signal fire along one shortest
    path from the initial marking; the enabled polarity then determines the
    value before that path, i.e. the initial value.
    """
    # Shortest-path parents via BFS over the explicit graph.
    parents: Dict[Marking, Tuple[Marking, str]] = {}
    order: List[Marking] = []
    start = reach.initial
    seen = {start}
    queue = deque([start])
    target: Optional[Marking] = None
    target_polarity: Optional[str] = None
    while queue:
        marking = queue.popleft()
        order.append(marking)
        for transition in stg.net.enabled_transitions(marking):
            label = stg.label_of(transition)
            if label.signal == signal and target is None:
                target = marking
                target_polarity = label.polarity
                break
        if target is not None:
            break
        for transition, successor in reach.successors(marking):
            if successor not in seen:
                seen.add(successor)
                parents[successor] = (marking, transition)
                queue.append(successor)
    if target is None or target_polarity is None:
        return False
    # Count the signal's transitions along the path back to the start.
    changes = 0
    current = target
    while current != start:
        current, transition = parents[current]
        if stg.signal_of(transition) == signal:
            changes += 1
    value_at_target = target_polarity == "-"  # a- enabled => a is 1 there
    if changes % 2 == 0:
        return value_at_target
    return not value_at_target
