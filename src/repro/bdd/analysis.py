"""Analysis helpers: support, model counting, model enumeration, evaluation."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.bdd.function import Function
from repro.bdd.manager import FALSE_ID, TRUE_ID


def support(f: Function) -> List[str]:
    """Variables the function depends on, in the manager's order."""
    manager = f.manager
    levels = set()
    for node in manager.descendants(f.node):
        if not manager.is_terminal(node):
            levels.add(manager.node_level(node))
    return [manager.var_at_level(level) for level in sorted(levels)]


class _OutsideCare(Exception):
    """The count walk met a node outside the care set."""


def sat_count(f: Function, care_vars: Optional[Sequence[str]] = None) -> int:
    """Number of satisfying assignments of ``f`` over ``care_vars``.

    ``care_vars`` defaults to every declared variable; it must contain the
    support of ``f``.  The count walk checks that as it goes, so a valid
    care set costs one walk over ``f``.
    """
    manager = f.manager
    if care_vars is None:
        care_vars = manager.variables
    care_levels = sorted(manager.level_of(name) for name in care_vars)
    # Per level: its index among the care levels, or None outside them.
    position: List[Optional[int]] = [None] * manager.num_vars
    for i, level in enumerate(care_levels):
        position[level] = i
    n = len(care_levels)
    node_level, node_low, node_high = (manager._level, manager._low,
                                       manager._high)
    cache: Dict[int, int] = {}

    def models_below(node: int, from_position: int) -> int:
        """Count models over care variables with index >= ``from_position``."""
        if node == FALSE_ID:
            return 0
        if node == TRUE_ID:
            return 1 << (n - from_position)
        pos = position[node_level[node]]
        if pos is None:
            raise _OutsideCare
        base = cache.get(node)
        if base is None:
            base = (models_below(node_low[node], pos + 1)
                    + models_below(node_high[node], pos + 1))
            cache[node] = base
        # Care variables skipped between ``from_position`` and this node are
        # free: each doubles the count.
        return base << (pos - from_position)

    try:
        return models_below(f.node, 0)
    except _OutsideCare:
        raise _not_covered(f, [pos is not None for pos in position]) \
            from None
    finally:
        models_below = None  # the closure reaches itself through this cell


def _not_covered(f: Function, in_care: List[bool]) -> ValueError:
    """The error for a care set (``in_care``, per level) that misses
    part of the support of ``f``."""
    manager = f.manager
    missing = [name for name in support(f)
               if not in_care[manager.level_of(name)]]
    return ValueError(f"care set does not cover the support: "
                      f"missing {missing}")


def evaluate(f: Function, assignment: Dict[str, bool]) -> bool:
    """Evaluate ``f`` under an assignment covering its support."""
    manager = f.manager
    node = f.node
    while not manager.is_terminal(node):
        name = manager.var_at_level(manager.node_level(node))
        try:
            value = assignment[name]
        except KeyError as exc:
            raise ValueError(
                f"assignment does not define variable {name!r}") from exc
        node = manager.node_high(node) if value else manager.node_low(node)
    return node == TRUE_ID


def iter_models(f: Function, care_vars: Optional[Sequence[str]] = None
                ) -> Iterator[Dict[str, bool]]:
    """Enumerate satisfying assignments as dictionaries over ``care_vars``.

    Models are produced in lexicographic order of the care variables (in
    manager order, False < True).  The number of yielded models equals
    :func:`sat_count` with the same care set.  No check enumerates
    models: this is the reference the tests hold :func:`pick_one` to.
    """
    manager = f.manager
    if care_vars is None:
        care_vars = manager.variables
    care_levels = sorted(manager.level_of(name) for name in care_vars)
    names = [manager.var_at_level(level) for level in care_levels]
    level_set = set(care_levels)
    for name in support(f):
        if manager.level_of(name) not in level_set:
            raise ValueError(
                f"care set does not cover the support: missing {name!r}")

    def recurse(node: int, index: int, partial: Dict[str, bool]
                ) -> Iterator[Dict[str, bool]]:
        if node == FALSE_ID:
            return
        if index == len(care_levels):
            yield dict(partial)
            return
        level = care_levels[index]
        name = names[index]
        if manager.is_terminal(node) or manager.node_level(node) > level:
            # The function does not test this care variable here.
            for value in (False, True):
                partial[name] = value
                yield from recurse(node, index + 1, partial)
            del partial[name]
            return
        # The node level equals the care level (it cannot be smaller because
        # the care set covers the support).
        partial[name] = False
        yield from recurse(manager.node_low(node), index + 1, partial)
        partial[name] = True
        yield from recurse(manager.node_high(node), index + 1, partial)
        del partial[name]

    try:
        yield from recurse(f.node, 0, {})
    finally:
        recurse = None  # the closure reaches itself through this cell


def pick_one(f: Function, care_vars: Optional[Sequence[str]] = None
             ) -> Optional[Dict[str, bool]]:
    """Return one satisfying assignment over ``care_vars`` or ``None``.

    The model is the first :func:`iter_models` yields: the care
    variables are read in manager order, and each takes the low branch
    unless it leads to FALSE; a variable ``f`` does not test there is
    False.  The model is read along one path.  When ``care_vars`` is
    narrower than every declared variable, one walk over ``f``'s nodes
    first checks that it covers the support (raising
    :class:`ValueError` otherwise).
    """
    if f.is_false():
        return None
    manager = f.manager
    if care_vars is None:
        care_vars = manager.variables
    care_levels = sorted(manager.level_of(name) for name in care_vars)
    in_care = [False] * manager.num_vars
    for level in care_levels:
        in_care[level] = True
    node_level, node_low, node_high = (manager._level, manager._low,
                                       manager._high)
    if not all(in_care):
        seen = set()
        stack = [f.node]
        while stack:
            node = stack.pop()
            if node <= TRUE_ID or node in seen:
                continue
            if not in_care[node_level[node]]:
                raise _not_covered(f, in_care)
            seen.add(node)
            stack.append(node_low[node])
            stack.append(node_high[node])
    model: Dict[str, bool] = {}
    node = f.node
    for level in care_levels:
        value = False
        if node_level[node] == level:
            if node_low[node] == FALSE_ID:
                node, value = node_high[node], True
            else:
                node = node_low[node]
        model[manager.var_at_level(level)] = value
    return model
