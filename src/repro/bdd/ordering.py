"""Static variable-ordering heuristics.

The paper remarks (Section 6) that "BDDs may have an exponential size if
appropriate heuristics for variable ordering are not used".  The order is
computed before any BDD is built, from a variable "affinity" hypergraph
(sets of variables that appear together, e.g. the places around a
Petri-net transition), using the FORCE heuristic [Aloul, Markov, Sakallah
2003], which is simple, deterministic and works well on the netlist-like
structures of this project.  FORCE refines the order it is given, so the
caller's seed order matters: the STG encoding seeds it with a token-flow
depth-first order.  Each hyperedge's centre of gravity counts with
weight ``1/(|e| - 1)`` (the clique net model) when a variable's new
position is averaged, so wide hyperedges do not dominate narrow ones.
:func:`spans` measures the result: the span of a hyperedge is what a
saturation event pays for (Ciardo, Lüttgen & Siminiceanu, TACAS 2001).

Dynamic reordering (sifting) is deliberately out of scope: the manager
stores reduced nodes in insertion order, and a pure-Python sifting pass
after FORCE costs more time than it saves on the project's workloads
(the static orders are compared in
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

    Each sweep places every hyperedge's centre at the mean position of
    its members, moves every variable to the average of the centres of
    its hyperedges, each weighted by ``1/(|e| - 1)``, and re-ranks; the
    loop stops at a fixed point or after :data:`_FORCE_ITERATIONS`
    sweeps.  Ties break by name.

    Parameters
    ----------
    variables:
        All variable names to order (the result is a permutation of
        them), in the seed order FORCE starts from.
    groups:
        Hyperedges: collections of variables that interact and should be
        placed close together (for a Petri net: ``pre(t) U post(t)`` for
        each transition, plus place/signal co-occurrence groups).  Their
        order does not matter, and a member listed twice counts once.

    Returns
    -------
    list of str
        The computed order, best first (root of the BDD).
    """
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
    for _ in range(_FORCE_ITERATIONS):
        # Center of gravity of every hyperedge.
        centers = [sum(position[v] for v in edge) / len(edge)
                   for edge in hyperedges]
        # Tentative new position of every variable: the average of the
        # centers of the hyperedges it belongs to, each weighted by
        # 1/(|e| - 1).
        accumulator: Dict[str, Tuple[float, float]] = {}
        for edge, center, weight in zip(hyperedges, centers, weights):
            for name in edge:
                total, mass = accumulator.get(name, (0.0, 0.0))
                accumulator[name] = (total + weight * center, mass + weight)
        new_position = dict(position)
        for name, (total, mass) in accumulator.items():
            new_position[name] = total / mass
        ordered = sorted(variables, key=lambda name: (new_position[name], name))
        next_position = {name: float(i) for i, name in enumerate(ordered)}
        if next_position == position:
            break
        position = next_position
    return sorted(variables, key=lambda name: (position[name], name))


def spans(order: Sequence[str],
          groups: Iterable[Sequence[str]]) -> List[int]:
    """The span of every group under ``order``: how many levels lie
    between its first and its last member (0 for a single member).

    Members missing from ``order`` are ignored, and so is a group with
    none in it.
    """
    level = {name: index for index, name in enumerate(order)}
    result = []
    for group in groups:
        levels = [level[name] for name in group if name in level]
        if levels:
            result.append(max(levels) - min(levels))
    return result
