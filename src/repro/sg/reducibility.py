"""Explicit CSC-reducibility analysis (Definition 3.5, Proposition 3.2).

A consistent, persistent state graph of a bounded STG is *CSC-reducible*
(its CSC violations can be repaired by inserting non-input signals without
touching the interface) when it is

* deterministic -- no state has two successors under the same signal
  transition,
* commutative -- two transitions enabled together reach the same state in
  either order, and
* free from *mutually complementary input sequences* -- no state spawns
  two distinct input-only firing sequences with equal unbalanced sets that
  end in different states.

The check for complementary input sequences follows the construction of
Section 5.3: starting from the quiescent side of the contradictory states
``CONT(a)`` of each non-input ``a``, traverse backward and then forward
with all non-input signals frozen, and test whether the excitation side of
``CONT(a)`` is reached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.sg.regions import compute_regions
from repro.sg.state import State, StateGraph
from repro.stg.stg import STG


# ----------------------------------------------------------------------
# Determinism and commutativity
# ----------------------------------------------------------------------
@dataclass
class DeterminismResult:
    """Outcome of the determinism check (Definition 3.5(1))."""

    deterministic: bool
    violations: List[Tuple[State, str]] = field(default_factory=list)


def check_determinism(graph: StateGraph, stg: STG) -> DeterminismResult:
    """No state may have two different successors via the same ``a*`` label.

    Two distinct transitions with the same generic label (``a+`` and
    ``a+/2``) enabled in the same state violate determinism only when they
    lead to different states.
    """
    violations: List[Tuple[State, str]] = []
    for state in graph.states:
        by_generic: Dict[str, Set[State]] = {}
        for transition, successor in graph.successors(state):
            generic = stg.label_of(transition).generic
            by_generic.setdefault(generic, set()).add(successor)
        for generic, successors in by_generic.items():
            if len(successors) > 1:
                violations.append((state, generic))
    return DeterminismResult(not violations, violations)


@dataclass
class CommutativityResult:
    """Outcome of the commutativity check (Definition 3.5(2))."""

    commutative: bool
    violations: List[Tuple[State, str, str]] = field(default_factory=list)


def check_commutativity(graph: StateGraph, stg: STG) -> CommutativityResult:
    """Both orders of two enabled transitions must reach the same state.

    The check is performed per state on the generic signal-transition
    labels, as in Definition 3.5(2): if ``s --a*--> s1 --b*--> s3`` and
    ``s --b*--> s2 --a*--> s4`` then ``s3`` must equal ``s4``.  Pairs where
    one order is not possible (the diamond does not close because a
    transition got disabled) are persistency problems, not commutativity
    problems, and are ignored here.
    """
    violations: List[Tuple[State, str, str]] = []
    for state in graph.states:
        outgoing = graph.successors(state)
        generic_targets: Dict[str, List[State]] = {}
        for transition, successor in outgoing:
            generic = stg.label_of(transition).generic
            generic_targets.setdefault(generic, []).append(successor)
        generics = sorted(generic_targets)
        for i, first in enumerate(generics):
            for second in generics[i + 1:]:
                ends_first: Set[State] = set()
                for mid in generic_targets[first]:
                    for transition, successor in graph.successors(mid):
                        if stg.label_of(transition).generic == second:
                            ends_first.add(successor)
                ends_second: Set[State] = set()
                for mid in generic_targets[second]:
                    for transition, successor in graph.successors(mid):
                        if stg.label_of(transition).generic == first:
                            ends_second.add(successor)
                if ends_first and ends_second and ends_first != ends_second:
                    violations.append((state, first, second))
    return CommutativityResult(not violations, violations)


# ----------------------------------------------------------------------
# Mutually complementary input sequences
# ----------------------------------------------------------------------
@dataclass
class ComplementarySequencesResult:
    """Outcome of the frozen-input traversal check of Section 5.3."""

    free: bool
    offending_signals: List[str] = field(default_factory=list)


def _frozen_input_edges(graph: StateGraph, stg: STG
                        ) -> Dict[State, List[State]]:
    """Successor map using only edges labelled with *input* transitions."""
    forward: Dict[State, List[State]] = {state: [] for state in graph.states}
    for source, transition, target in graph.edges():
        if stg.is_input(stg.signal_of(transition)):
            forward[source].append(target)
    return forward


def _reverse(edges: Dict[State, List[State]]) -> Dict[State, List[State]]:
    reverse: Dict[State, List[State]] = {state: [] for state in edges}
    for source, targets in edges.items():
        for target in targets:
            reverse[target].append(source)
    return reverse


def _closure(seeds: Set[State], edges: Dict[State, List[State]]) -> Set[State]:
    reached = set(seeds)
    queue = deque(seeds)
    while queue:
        state = queue.popleft()
        for successor in edges[state]:
            if successor not in reached:
                reached.add(successor)
                queue.append(successor)
    return reached


def check_complementary_input_sequences(graph: StateGraph, stg: STG
                                        ) -> ComplementarySequencesResult:
    """Detect mutually complementary input sequences (Section 5.3).

    For each non-input signal ``a`` with CSC conflicts, take the
    contradictory states on the quiescent side, close them backward and
    then forward over input-labelled edges only, and test whether the
    excitation side of the contradiction is reached.  If it is, the code
    conflict is caused purely by input behaviour with balanced signal
    changes and cannot be repaired by inserting non-input signals.
    """
    forward = _frozen_input_edges(graph, stg)
    backward = _reverse(forward)
    offending: List[str] = []
    signals = stg.signals
    for signal in stg.noninput_signals:
        regions = compute_regions(graph, stg, signal)
        er_states = regions.er_plus + regions.er_minus
        qr_states = regions.qr_plus + regions.qr_minus
        er_codes = {state.code_string(signals) for state in er_states}
        qr_codes = {state.code_string(signals) for state in qr_states}
        contradictory_codes = er_codes & qr_codes
        if not contradictory_codes:
            continue
        quiescent_seed = {state for state in qr_states
                          if state.code_string(signals) in contradictory_codes}
        reached_backward = _closure(quiescent_seed, backward)
        reached_frozen = _closure(reached_backward, forward)
        excitation_conflict = {state for state in er_states
                               if state.code_string(signals) in contradictory_codes}
        if reached_frozen & excitation_conflict:
            offending.append(signal)
    return ComplementarySequencesResult(not offending, offending)


# ----------------------------------------------------------------------
# Combined verdict
# ----------------------------------------------------------------------
@dataclass
class ReducibilityResult:
    """CSC-reducibility verdict and its three ingredients."""

    deterministic: bool
    commutative: bool
    complementary_free: bool
    offending_signals: List[str] = field(default_factory=list)


def check_reducibility(graph: StateGraph, stg: STG) -> ReducibilityResult:
    """Run the three ingredient checks and combine them."""
    determinism = check_determinism(graph, stg)
    commutativity = check_commutativity(graph, stg)
    complementary = check_complementary_input_sequences(graph, stg)
    return ReducibilityResult(
        determinism.deterministic,
        commutativity.commutative,
        complementary.free,
        complementary.offending_signals,
    )
