"""Static variable-ordering heuristics.

The paper remarks (Section 6) that "BDDs may have an exponential size if
appropriate heuristics for variable ordering are not used".  The order is
computed before any BDD is built, from a variable "affinity" hypergraph
(sets of variables that appear together, e.g. the places around a
Petri-net transition), using the FORCE heuristic [Aloul, Markov, Sakallah
2003], which is simple, deterministic and works well on the netlist-like
structures of this project.  :func:`force_order` works on integer
variables, which the STG encoding numbers in name order, so every tie
breaks by name.  FORCE refines the order it is given, so the caller's
seed order matters: the STG encoding seeds it with a token-flow
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

from typing import Hashable, Iterable, List, Sequence

#: Maximum number of FORCE center-of-gravity sweeps; the loop stops early
#: at a fixed point.
_FORCE_ITERATIONS = 50


def force_order(seed: Sequence[int],
                hyperedges: Iterable[Sequence[int]]) -> List[int]:
    """Compute a variable order with the FORCE hypergraph heuristic.

    Variables are the integers ``0 .. n-1``.  Each sweep places every
    hyperedge's centre at the mean position of its members, moves every
    variable to the average of the centres of its hyperedges, each
    weighted by ``1/(|e| - 1)``, and re-ranks; the loop stops at a fixed
    point or after :data:`_FORCE_ITERATIONS` sweeps.  Ties break by
    variable: a caller that numbers its variables in name order gets
    ties broken by name.

    The floats are summed in a fixed order, so the order is the same on
    every interpreter: the hyperedges are sorted, a centre sums integer
    positions (exact), and a variable's weighted centres and its mass
    (the sum of its weights, computed once) are added one hyperedge at
    a time, in that order.  ``sum()`` is kept off the floats, since from
    Python 3.12 it compensates rounding.

    Parameters
    ----------
    seed:
        Every variable once, in the order FORCE starts from.
    hyperedges:
        Groups of variables that interact and should be placed close
        together (for a Petri net: the places and signal of each
        transition).  Their order does not matter, and a member listed
        twice counts once.

    Returns
    -------
    list of int
        The computed order, best first (root of the BDD).
    """
    count = len(seed)
    edges = [members for members in (sorted(set(edge))
                                     for edge in hyperedges)
             if len(members) >= 2]
    if not edges:
        return list(seed)
    edges.sort()
    weights = [1.0 / (len(edge) - 1) for edge in edges]
    mass = [0.0] * count
    for edge, weight in zip(edges, weights):
        for variable in edge:
            mass[variable] += weight
    moving = [variable for variable in range(count) if mass[variable]]
    position = [0] * count
    for rank, variable in enumerate(seed):
        position[variable] = rank
    sizes = [len(edge) for edge in edges]
    for _ in range(_FORCE_ITERATIONS):
        total = [0.0] * count
        at = position.__getitem__
        for edge, weight, size in zip(edges, weights, sizes):
            # Center of gravity of the hyperedge, weighted by
            # 1/(|e| - 1), added to each member's running total.
            pull = weight * (sum(map(at, edge)) / size)
            for variable in edge:
                total[variable] += pull
        tentative = list(position)
        for variable in moving:
            tentative[variable] = total[variable] / mass[variable]
        # A stable sort of 0 .. n-1: ties keep the lower variable first.
        ranked = sorted(range(count), key=tentative.__getitem__)
        next_position = [0] * count
        for rank, variable in enumerate(ranked):
            next_position[variable] = rank
        if next_position == position:
            break
        position = next_position
    order = [0] * count
    for variable, rank in enumerate(position):
        order[rank] = variable
    return order


def spans(order: Sequence[Hashable],
          groups: Iterable[Sequence[Hashable]]) -> List[int]:
    """The span of every group under ``order``: how many levels lie
    between its first and its last member (0 for a single member).
    Variables may be names or :func:`force_order`'s integers.

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
