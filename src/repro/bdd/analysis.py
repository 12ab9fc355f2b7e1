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


def sat_count(f: Function, care_vars: Optional[Sequence[str]] = None) -> int:
    """Number of satisfying assignments of ``f`` over ``care_vars``.

    ``care_vars`` defaults to every declared variable; it must contain the
    support of ``f``.
    """
    manager = f.manager
    if care_vars is None:
        care_vars = manager.variables
    care_levels = sorted(manager.level_of(name) for name in care_vars)
    support_levels = {manager.level_of(name) for name in support(f)}
    if not support_levels.issubset(care_levels):
        missing = support_levels.difference(care_levels)
        names = [manager.var_at_level(level) for level in sorted(missing)]
        raise ValueError(f"care set does not cover the support: missing {names}")
    position = {level: i for i, level in enumerate(care_levels)}
    n = len(care_levels)
    cache: Dict[int, int] = {}

    def models_below(node: int, from_position: int) -> int:
        """Count models over care variables with index >= ``from_position``."""
        if node == FALSE_ID:
            return 0
        if node == TRUE_ID:
            return 1 << (n - from_position)
        level = manager.node_level(node)
        pos = position[level]
        base = cache.get(node)
        if base is None:
            base = (models_below(manager.node_low(node), pos + 1)
                    + models_below(manager.node_high(node), pos + 1))
            cache[node] = base
        # Care variables skipped between ``from_position`` and this node are
        # free: each doubles the count.
        return base << (pos - from_position)

    return models_below(f.node, 0)


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
    :func:`sat_count` with the same care set.
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

    yield from recurse(f.node, 0, {})


def pick_one(f: Function, care_vars: Optional[Sequence[str]] = None
             ) -> Optional[Dict[str, bool]]:
    """Return one satisfying assignment over ``care_vars`` or ``None``."""
    if f.is_false():
        return None
    for model in iter_models(f, care_vars):
        return model
    return None
