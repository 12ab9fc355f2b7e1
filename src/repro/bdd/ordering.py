"""Static variable-ordering heuristics.

The paper remarks (Section 6) that "BDDs may have an exponential size if
appropriate heuristics for variable ordering are not used".  The order is
computed before any BDD is built, from a variable "affinity" hypergraph
(sets of variables that appear together, e.g. the places around a
Petri-net transition), using the FORCE heuristic [Aloul, Markov, Sakallah
2003], which is simple, deterministic and works well on the netlist-like
structures of this project.

Dynamic reordering (sifting) is deliberately out of scope: the manager
stores reduced nodes in insertion order and the project's workloads are
handled well by the structural static orders (see
``benchmarks/test_variable_ordering.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

#: Maximum number of FORCE center-of-gravity sweeps; the loop stops early
#: at a fixed point.
_FORCE_ITERATIONS = 50


def force_ordering(variables: Sequence[str],
                   groups: Iterable[Sequence[str]]) -> List[str]:
    """Compute a variable order with the FORCE hypergraph heuristic.

    Parameters
    ----------
    variables:
        All variable names to order (the result is a permutation of them).
    groups:
        Hyperedges: collections of variables that interact and should be
        placed close together (for a Petri net: ``pre(t) U post(t)`` for
        each transition, plus place/signal co-occurrence groups).

    Returns
    -------
    list of str
        The computed order, best first (root of the BDD).
    """
    variables = list(variables)
    known = set(variables)
    hyperedges: List[List[str]] = []
    for group in groups:
        members = [name for name in group if name in known]
        if len(members) >= 2:
            hyperedges.append(members)
    if not hyperedges:
        return variables
    position: Dict[str, float] = {name: float(i)
                                  for i, name in enumerate(variables)}
    for _ in range(_FORCE_ITERATIONS):
        # Center of gravity of every hyperedge.
        centers = [sum(position[v] for v in edge) / len(edge)
                   for edge in hyperedges]
        # Tentative new position of every variable: average of the centers
        # of the hyperedges it belongs to.
        accumulator: Dict[str, Tuple[float, int]] = {}
        for edge, center in zip(hyperedges, centers):
            for name in edge:
                total, count = accumulator.get(name, (0.0, 0))
                accumulator[name] = (total + center, count + 1)
        new_position = dict(position)
        for name, (total, count) in accumulator.items():
            new_position[name] = total / count
        ordered = sorted(variables, key=lambda name: (new_position[name], name))
        next_position = {name: float(i) for i, name in enumerate(ordered)}
        if next_position == position:
            break
        position = next_position
    return sorted(variables, key=lambda name: (position[name], name))
