"""BDD operations no check calls, kept as the tests' references.

:func:`cofactor` is the oracle the tests hold ``transfer`` (whose
``f|require`` is this cofactor) and ``exist`` (the sum of the
cofactors) to; :func:`iter_models` enumerates every model, the
reference ``pick_one`` and ``sat_count`` are held to.  Both read the
manager only through its public node accessors and ``ite``, so they
share no cache or recursion with the kernel they check.
"""

from typing import Dict, Iterator, Optional, Sequence

from repro.bdd.analysis import support
from repro.bdd.function import Function
from repro.bdd.manager import FALSE_ID


def cofactor(f: Function, literals: Dict[str, bool]) -> Function:
    """``f`` with each variable of ``literals`` fixed to its value (the
    paper's cube-generalised cofactor ``f_c``)."""
    manager = f.manager
    fixed = {manager.level_of(name): bool(value)
             for name, value in literals.items()}
    return Function(manager, _restrict(manager, f.node, fixed, {}))


def _restrict(manager, node: int, fixed: Dict[int, bool],
              memo: Dict[int, int]) -> int:
    if manager.is_terminal(node):
        return node
    if node not in memo:
        level = manager.node_level(node)
        low, high = manager.node_low(node), manager.node_high(node)
        if level in fixed:
            memo[node] = _restrict(manager, high if fixed[level] else low,
                                   fixed, memo)
        else:
            memo[node] = manager.ite(
                manager.var(manager.var_at_level(level)).node,
                _restrict(manager, high, fixed, memo),
                _restrict(manager, low, fixed, memo))
    return memo[node]


def iter_models(f: Function, care_vars: Optional[Sequence[str]] = None
                ) -> Iterator[Dict[str, bool]]:
    """Enumerate satisfying assignments as dictionaries over ``care_vars``.

    Models are produced in lexicographic order of the care variables (in
    manager order, False < True).  The number of yielded models equals
    ``sat_count`` with the same care set.
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
