"""Convenience constructors for the Petri-net tests.

The tests build nets from terse descriptions; the helpers here keep
that code readable.  :func:`is_marked_graph` classifies the nets they
build (the verifier decides the class inside
:func:`repro.petri.structure.is_live_reversible_marked_graph`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.petri.net import PetriNet


def net_from_arcs(arcs: Iterable[Tuple[str, str]],
                  initial_marking: Optional[Mapping[str, int]] = None,
                  transitions: Optional[Iterable[str]] = None,
                  places: Optional[Iterable[str]] = None,
                  name: str = "net") -> PetriNet:
    """Build a net from an arc list.

    Node kinds are inferred: names starting with ``p`` or listed in
    ``places`` are places, everything else is a transition, unless the name
    is listed in ``transitions``.  Pass explicit ``places`` / ``transitions``
    whenever the ``p``-prefix convention does not hold.

    Parameters
    ----------
    arcs:
        Pairs ``(source, target)``.
    initial_marking:
        Token counts for initially marked places.
    transitions / places:
        Explicit node-kind declarations (take precedence over inference).
    """
    arcs = list(arcs)
    declared_transitions = set(transitions or ())
    declared_places = set(places or ())
    overlap = declared_transitions & declared_places
    if overlap:
        raise ValueError(f"nodes declared as both kinds: {sorted(overlap)}")

    def is_place(node: str) -> bool:
        if node in declared_places:
            return True
        if node in declared_transitions:
            return False
        return node.startswith("p")

    net = PetriNet(name)
    marking = dict(initial_marking or {})
    seen = []
    for source, target in arcs:
        for node in (source, target):
            if node in seen:
                continue
            seen.append(node)
            if is_place(node):
                net.add_place(node, marking.get(node, 0))
            else:
                net.add_transition(node)
    # Declared but unused nodes are still added (isolated).  Sorted:
    # declaration order fixes the net's place/transition lists, which
    # downstream fix encoding variable order -- set order would leak
    # PYTHONHASHSEED into them.
    for node in sorted(declared_places):
        if not net.has_place(node):
            net.add_place(node, marking.get(node, 0))
    for node in sorted(declared_transitions):
        if not net.has_transition(node):
            net.add_transition(node)
    for source, target in arcs:
        net.add_arc(source, target)
    # Marked places that never appeared in an arc.
    for place, tokens in marking.items():
        if not net.has_place(place):
            net.add_place(place, tokens)
    return net


def is_marked_graph(net: PetriNet) -> bool:
    """True iff every place has at most one input and one output transition."""
    return all(len(net.preset_of_place(p)) <= 1
               and len(net.postset_of_place(p)) <= 1
               for p in net.places)


def chain(transition_names: Sequence[str], name: str = "chain",
          closed: bool = False, marked_place: int = 0) -> PetriNet:
    """A linear (or circular) sequence of transitions joined by places.

    ``t0 -> p(0,1) -> t1 -> p(1,2) -> ...``; with ``closed=True`` the last
    transition feeds a place back into the first one, and ``marked_place``
    selects which connecting place carries the single token (for a closed
    chain) -- an elementary cycle, the building block of marked graphs.
    """
    net = PetriNet(name)
    for transition in transition_names:
        net.add_transition(transition)
    count = len(transition_names)
    if count == 0:
        return net
    limit = count if closed else count - 1
    for index in range(limit):
        source = transition_names[index]
        target = transition_names[(index + 1) % count]
        place = f"p_{source}_{target}"
        tokens = 1 if (closed and index == marked_place % count) else 0
        net.add_place(place, tokens)
        net.add_arc(source, place)
        net.add_arc(place, target)
    if not closed:
        # Initial place feeding the first transition.
        net.add_place("p_start", 1)
        net.add_arc("p_start", transition_names[0])
    return net


def parallel_join(branches: Sequence[Sequence[str]], name: str = "fork_join"
                  ) -> PetriNet:
    """A fork/join net: a fork transition starts all branches, a join ends them.

    Each branch is a sequence of transition names executed in order;
    branches run concurrently between the fork and the join.  The net is a
    safe marked graph whose reachability graph has a product-of-chains shape
    -- handy for state-explosion tests.
    """
    net = PetriNet(name)
    net.add_transition("fork")
    net.add_transition("join")
    net.add_place("p_idle", 1)
    net.add_arc("p_idle", "fork")
    net.add_place("p_done")
    net.add_arc("join", "p_done")
    for branch_index, branch in enumerate(branches):
        previous = "fork"
        for step_index, transition in enumerate(branch):
            place = f"p_b{branch_index}_{step_index}"
            net.add_place(place)
            net.add_arc(previous, place)
            net.add_transition(transition)
            net.add_arc(place, transition)
            previous = transition
        final_place = f"p_b{branch_index}_end"
        net.add_place(final_place)
        net.add_arc(previous, final_place)
        net.add_arc(final_place, "join")
    return net


def free_choice_cell(choices: Dict[str, Sequence[str]], name: str = "choice"
                     ) -> PetriNet:
    """A single free-choice place selecting between alternative branches.

    ``choices`` maps a branch-entry transition to the rest of its branch.
    All branches re-merge into the choice place, forming a state machine.
    """
    net = PetriNet(name)
    net.add_place("p_choice", 1)
    for entry, rest in choices.items():
        net.add_transition(entry)
        net.add_arc("p_choice", entry)
        previous = entry
        for index, transition in enumerate(rest):
            place = f"p_{entry}_{index}"
            net.add_place(place)
            net.add_arc(previous, place)
            net.add_transition(transition)
            net.add_arc(place, transition)
            previous = transition
        net.add_arc(previous, "p_choice")
    return net
