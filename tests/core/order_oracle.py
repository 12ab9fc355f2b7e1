"""The name-based variable order: the reference of the step-table one.

:class:`~repro.core.encoding.SymbolicEncoding` orders integer variable
ids read off its step table.  This module keeps the order as it was
computed on names -- the FORCE heuristic over name lists, the
co-occurrence hyperedges built from pre- and postsets, and the
token-flow walk over place and transition names -- so the tests can
hold the id-based order to it, variable for variable.
"""

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.encoding import SymbolicEncoding

#: Maximum number of FORCE center-of-gravity sweeps, as in production.
FORCE_ITERATIONS = 50


def force_ordering(variables: Sequence[str],
                   groups: Iterable[Sequence[str]]) -> List[str]:
    """FORCE over names: hyperedge centres weighted by ``1/(|e| - 1)``,
    ties broken by name, members outside ``variables`` ignored."""
    variables = list(variables)
    known = set(variables)
    hyperedges: List[List[str]] = []
    for group in groups:
        members = sorted({name for name in group if name in known})
        if len(members) >= 2:
            hyperedges.append(members)
    if not hyperedges:
        return variables
    # A fixed edge order fixes the order the floats below are summed in.
    hyperedges.sort()
    weights = [1.0 / (len(edge) - 1) for edge in hyperedges]
    position: Dict[str, float] = {name: float(i)
                                  for i, name in enumerate(variables)}
    for _ in range(FORCE_ITERATIONS):
        centers = [sum(position[v] for v in edge) / len(edge)
                   for edge in hyperedges]
        accumulator: Dict[str, Tuple[float, float]] = {}
        for edge, center, weight in zip(hyperedges, centers, weights):
            for name in edge:
                total, mass = accumulator.get(name, (0.0, 0.0))
                accumulator[name] = (total + weight * center, mass + weight)
        new_position = dict(position)
        for name, (total, mass) in accumulator.items():
            new_position[name] = total / mass
        ordered = sorted(variables,
                         key=lambda name: (new_position[name], name))
        next_position = {name: float(i) for i, name in enumerate(ordered)}
        if next_position == position:
            break
        position = next_position
    return sorted(variables, key=lambda name: (position[name], name))


def co_occurrence_groups(stg) -> List[List[str]]:
    """The variables each transition touches, presets and postsets
    sorted, in the net's transition order."""
    place, signal = (SymbolicEncoding.place_variable,
                     SymbolicEncoding.signal_variable)
    net = stg.net
    groups = []
    for transition in net.transitions:
        group = [place(p) for p in sorted(net.preset_of_transition(transition))]
        group += [place(p)
                  for p in sorted(net.postset_of_transition(transition))]
        group.append(signal(stg.signal_of(transition)))
        groups.append(group)
    return groups


def structural_order(stg) -> List[str]:
    """The token-flow walk over names with an explicit stack: marked
    places first, then every place, both in name order; a place's
    output transitions and their output places in name order."""
    place, signal = (SymbolicEncoding.place_variable,
                     SymbolicEncoding.signal_variable)
    net = stg.net
    order: List[str] = []
    seen = set()

    def successors(name: str) -> Iterator[str]:
        for transition in sorted(net.postset_of_place(name)):
            variable = signal(stg.signal_of(transition))
            if variable not in seen:
                seen.add(variable)
                order.append(variable)
            yield from sorted(net.postset_of_transition(transition))

    def visit(root: str) -> None:
        stack: List[Iterator[str]] = [iter((root,))]
        while stack:
            name = next(stack[-1], None)
            if name is None:
                stack.pop()
                continue
            if place(name) not in seen:
                seen.add(place(name))
                order.append(place(name))
                stack.append(successors(name))

    places = sorted(net.places)
    initial = stg.initial_marking()
    for name in places:
        if initial[name] > 0:
            visit(name)
    for name in places:
        visit(name)
    for name in stg.signals:
        if signal(name) not in seen:
            seen.add(signal(name))
            order.append(signal(name))
    return order


def force_order_of(stg) -> List[str]:
    """The default ``force`` order: FORCE seeded with the walk."""
    return force_ordering(structural_order(stg), co_occurrence_groups(stg))
