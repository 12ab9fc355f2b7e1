"""Sum-of-products cover extraction from BDDs.

Implements the Minato-Morreale irredundant sum-of-products (ISOP)
procedure on the interval ``[f, f]`` (exact function, no don't cares) and a
variant with a don't-care upper bound, which is what the synthesis layer
uses to print readable next-state equations for asynchronous gates.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bdd.function import Function
from repro.bdd.manager import BDDManager, FALSE_ID, TRUE_ID

Cube = Dict[str, bool]


def isop(f: Function, upper: Function | None = None) -> List[Cube]:
    """Irredundant sum-of-products cover of the interval ``[f, upper]``.

    Every returned cube implies ``upper`` and the disjunction of the cubes
    covers ``f``.  With ``upper`` omitted the cover is an exact cover of
    ``f``.  Cubes are dictionaries ``{variable: polarity}``.
    """
    manager = f.manager
    if upper is None:
        upper = f
    if upper.manager is not manager:
        raise ValueError("bounds must belong to the same manager")
    if not (f <= upper):
        raise ValueError("lower bound must imply upper bound")
    cache: Dict[Tuple[int, int], Tuple[int, List[Cube]]] = {}
    _, cubes = _isop(manager, f.node, upper.node, cache)
    return cubes


def cover_function(f: Function, cubes: List[Cube]) -> Function:
    """Rebuild a :class:`Function` from a cube list (for verification)."""
    manager = f.manager
    result = manager.false
    for cube in cubes:
        result = result | manager.cube(cube)
    return result


def _isop(manager: BDDManager, lower: int, upper: int,
          cache: Dict[Tuple[int, int], Tuple[int, List[Cube]]]
          ) -> Tuple[int, List[Cube]]:
    """Return ``(cover_node, cube_list)`` for the interval ``[lower, upper]``."""
    if lower == FALSE_ID:
        return FALSE_ID, []
    if upper == TRUE_ID:
        return TRUE_ID, [{}]
    key = (lower, upper)
    cached = cache.get(key)
    if cached is not None:
        return cached
    level = min(manager.node_level(lower), manager.node_level(upper))
    name = manager.var_at_level(level)
    l0, l1 = manager._cofactors_at(lower, level)
    u0, u1 = manager._cofactors_at(upper, level)

    # Cubes that must contain the negative literal.
    lower_0 = manager.apply_diff(l0, u1)
    cover_0, cubes_0 = _isop(manager, lower_0, u0, cache)
    # Cubes that must contain the positive literal.
    lower_1 = manager.apply_diff(l1, u0)
    cover_1, cubes_1 = _isop(manager, lower_1, u1, cache)
    # Remainder, independent of the variable.
    remainder_lower = manager.apply_or(
        manager.apply_diff(l0, cover_0), manager.apply_diff(l1, cover_1))
    remainder_upper = manager.apply_and(u0, u1)
    cover_r, cubes_r = _isop(manager, remainder_lower, remainder_upper, cache)

    negative = manager._mk(level, TRUE_ID, FALSE_ID)
    positive = manager._mk(level, FALSE_ID, TRUE_ID)
    cover = manager.apply_or(
        manager.apply_or(manager.apply_and(negative, cover_0),
                         manager.apply_and(positive, cover_1)),
        cover_r)
    cubes: List[Cube] = []
    for cube in cubes_0:
        extended = dict(cube)
        extended[name] = False
        cubes.append(extended)
    for cube in cubes_1:
        extended = dict(cube)
        extended[name] = True
        cubes.append(extended)
    cubes.extend(cubes_r)
    cache[key] = (cover, cubes)
    return cover, cubes


def cube_to_string(cube: Cube) -> str:
    """Render one cube as a product-of-literals string (``a b' c``)."""
    if not cube:
        return "1"
    literals = []
    for name in sorted(cube):
        literals.append(name if cube[name] else f"{name}'")
    return " ".join(literals)
