"""Structural (marking-independent) properties of Petri nets.

Several facts used by the paper depend only on the net structure:
*conflict places* -- places with more than one output transition -- are
the only possible sources of transition non-persistency (Section 5.2),
and source transitions and isolated places are flagged by the structural
validation of an STG.

*Marked graphs* -- every place has at most one input and one output
transition -- are the class Section 6 uses to call its persistency phase
negligible.  For them liveness and reversibility follow from the
structure and the initial token count of each circuit
(:func:`is_live_reversible_marked_graph`), which lets the verification
pipeline skip the symbolic reversibility closure.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.petri.net import PetriNet


def conflict_places(net: PetriNet) -> List[str]:
    """Places with more than one output transition (``|p•| > 1``)."""
    return [p for p in net.places if len(net.postset_of_place(p)) > 1]


def source_transitions(net: PetriNet) -> List[str]:
    """Transitions with an empty preset (always enabled -- usually a bug)."""
    return [t for t in net.transitions if not net.preset_of_transition(t)]


def isolated_places(net: PetriNet) -> List[str]:
    """Places not connected to any transition."""
    return [p for p in net.places
            if not net.preset_of_place(p) and not net.postset_of_place(p)]


def is_marked_graph(net: PetriNet) -> bool:
    """True iff every place has at most one input and one output transition."""
    return all(len(net.preset_of_place(p)) <= 1
               and len(net.postset_of_place(p)) <= 1
               for p in net.places)


def is_live_reversible_marked_graph(net: PetriNet) -> bool:
    """Does the structure prove the marked graph live and reversible?

    True iff three things hold:

    * the net is a marked graph (:func:`is_marked_graph`);
    * every place lies on a directed circuit and every transition has an
      input place, which makes each connected component strongly
      connected;
    * the initially unmarked places form no circuit.

    Read each place as an arc from its input to its output transition.
    By Commoner's theorem a marked graph is live iff every directed
    circuit carries a token (Commoner, Holt, Even & Pnueli, JCSS 1971),
    and the third condition says exactly that.  Firing a transition
    takes one token from, and puts one on, every circuit through it, so
    each circuit keeps its initial token count, and every reachable
    marking is live too.  In a live marked graph whose every place lies
    on a circuit, a marking is reachable iff it gives each circuit the
    same count (Murata, *Proc. IEEE* 1989, Section VI-A).  Applied from
    any reachable marking, that makes the initial marking reachable
    again: the net is reversible.  A live net with a transition never
    deadlocks.

    These are facts about token counts.  The symbolic engine encodes a
    marking with one boolean per place, so its caller
    (:meth:`repro.core.pipeline.VerificationPipeline.reversibility`)
    adds the guards that make its state space the net's.

    One walk over the places in declaration order builds the transition
    graph; one reachability pair per component checks strong
    connectivity, and a topological sort of the unmarked arcs checks
    the circuits.
    """
    if not is_marked_graph(net):
        return False
    transitions = net.transitions
    successors: Dict[str, List[str]] = {t: [] for t in transitions}
    predecessors: Dict[str, List[str]] = {t: [] for t in transitions}
    unmarked: Dict[str, List[str]] = {t: [] for t in transitions}
    waiting = dict.fromkeys(transitions, 0)  # unmarked input places
    for place in net.places:
        producers = sorted(net.preset_of_place(place))
        consumers = sorted(net.postset_of_place(place))
        if not producers or not consumers:
            return False  # a place with a missing side lies on no circuit
        source, target = producers[0], consumers[0]
        successors[source].append(target)
        predecessors[target].append(source)
        if net.place(place).initial_tokens == 0:
            unmarked[source].append(target)
            waiting[target] += 1
    if not all(predecessors[t] for t in transitions):
        return False
    # A component is strongly connected iff one of its transitions
    # reaches exactly the transitions that reach it.
    covered: Set[str] = set()
    for root in transitions:
        if root not in covered:
            component = _reachable(root, successors)
            if component != _reachable(root, predecessors):
                return False
            covered |= component
    # Kahn's topological sort over the unmarked places: it consumes
    # every transition iff they form no circuit.
    ready = [t for t in transitions if waiting[t] == 0]
    consumed = 0
    while ready:
        consumed += 1
        for target in unmarked[ready.pop()]:
            waiting[target] -= 1
            if waiting[target] == 0:
                ready.append(target)
    return consumed == len(transitions)


def _reachable(root: str, adjacency: Dict[str, List[str]]) -> Set[str]:
    """The transitions reachable from ``root`` along ``adjacency``."""
    found = {root}
    stack = [root]
    while stack:
        for node in adjacency[stack.pop()]:
            if node not in found:
                found.add(node)
                stack.append(node)
    return found
