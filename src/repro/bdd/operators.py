"""Derived BDD operations: quantification, cofactors, composition,
renaming, the image kernel :func:`transfer` and the cube query
:func:`meets`.

All functions here take :class:`~repro.bdd.function.Function` handles.
Each operation memoises its recursion in a dedicated cache on the
manager (quantification, cofactor, the relational product and
``transfer`` each own one; composition shares the generic
``_op_cache``), keyed by the node id plus a small interned id of the
operation parameter (:meth:`~repro.bdd.manager.BDDManager.intern_key`)
-- so cache probes hash integer tuples instead of re-hashing frozensets
on every visit.  :func:`meets` builds no node, so its memo lives for
one call.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from repro.bdd.function import Function
from repro.bdd.manager import (BDDError, BDDManager, BDDOrderError, FALSE_ID,
                               TRUE_ID)


def _levels_of(manager: BDDManager, variables: Sequence[str]) -> FrozenSet[int]:
    return frozenset(manager.level_of(name) for name in variables)


# ----------------------------------------------------------------------
# Quantification
# ----------------------------------------------------------------------
def exist(f: Function, variables: Sequence[str]) -> Function:
    """Existential quantification ``exists variables . f``.

    The abstraction of a single variable x is the classic
    ``f[x:=0] + f[x:=1]`` (Section 4 of the paper).
    """
    manager = f.manager
    levels = _levels_of(manager, variables)
    if not levels:
        return f
    key_id = manager.intern_key(("quant", levels))
    result = _quantify(manager, f.node, levels, max(levels), key_id,
                       conjunction=False)
    return manager._wrap(result)


def forall(f: Function, variables: Sequence[str]) -> Function:
    """Universal quantification ``forall variables . f``."""
    manager = f.manager
    levels = _levels_of(manager, variables)
    if not levels:
        return f
    key_id = manager.intern_key(("quant", levels))
    result = _quantify(manager, f.node, levels, max(levels), key_id,
                       conjunction=True)
    return manager._wrap(result)


def _quantify(manager: BDDManager, node: int, levels: FrozenSet[int],
              top: int, key_id: int, conjunction: bool) -> int:
    if manager.is_terminal(node):
        return node
    level = manager.node_level(node)
    if level > top:
        # Every quantified variable is above this node: nothing to abstract.
        return node
    cache = manager._quant_cache
    key = (conjunction, node, key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    low = _quantify(manager, manager.node_low(node), levels, top, key_id,
                    conjunction)
    high = _quantify(manager, manager.node_high(node), levels, top, key_id,
                     conjunction)
    if level in levels:
        if conjunction:
            result = manager.apply_and(low, high)
        else:
            result = manager.apply_or(low, high)
    else:
        result = manager._mk(level, low, high)
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


def and_exist(f: Function, g: Function, variables: Sequence[str]) -> Function:
    """Relational product ``exists variables . (f & g)`` in one pass."""
    manager = f.manager
    if g.manager is not manager:
        raise ValueError("cannot combine functions from different managers")
    levels = _levels_of(manager, variables)
    key_id = manager.intern_key(("andex", levels))
    result = _and_exist(manager, f.node, g.node, levels, key_id)
    return manager._wrap(result)


def _and_exist(manager: BDDManager, f: int, g: int,
               levels: FrozenSet[int], key_id: int) -> int:
    if f == FALSE_ID or g == FALSE_ID:
        return FALSE_ID
    if f == TRUE_ID and g == TRUE_ID:
        return TRUE_ID
    if f == TRUE_ID or g == TRUE_ID:
        single = g if f == TRUE_ID else f
        if not levels:
            return single
        quant_id = manager.intern_key(("quant", levels))
        return _quantify(manager, single, levels, max(levels), quant_id,
                         conjunction=False)
    cache = manager._andex_cache
    key = (min(f, g), max(f, g), key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    level = min(manager.node_level(f), manager.node_level(g))
    f0, f1 = manager._cofactors_at(f, level)
    g0, g1 = manager._cofactors_at(g, level)
    if level in levels:
        low = _and_exist(manager, f0, g0, levels, key_id)
        if low == TRUE_ID:
            result = TRUE_ID
        else:
            high = _and_exist(manager, f1, g1, levels, key_id)
            result = manager.apply_or(low, high)
    else:
        low = _and_exist(manager, f0, g0, levels, key_id)
        high = _and_exist(manager, f1, g1, levels, key_id)
        result = manager._mk(level, low, high) if low != high else low
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


# ----------------------------------------------------------------------
# Cube queries: which of many cubes does f meet?
# ----------------------------------------------------------------------
def meets(f: Function, cubes: Sequence[Function]) -> List[bool]:
    """``[not (f & cube).is_false() for cube in cubes]`` in one pass.

    Every node of ``f`` gets the bitmask of the cubes it meets, bottom
    up: the TRUE terminal meets every cube, FALSE none, and a node at
    level ``k`` meets a cube through its low child unless the cube holds
    the variable at 1, through its high child unless it holds it at 0.
    A level ``f`` skips is free, and below the deepest cube literal
    every node but FALSE meets every cube.  No product is built and no
    node is created; each node visited counts one ``cache_lookups``.

    Raises :class:`~repro.bdd.manager.BDDError` when an argument is not
    a satisfiable conjunction of literals (TRUE is the empty cube).
    """
    manager = f.manager
    node_level, node_low, node_high = (manager._level, manager._low,
                                       manager._high)
    everything = (1 << len(cubes)) - 1
    # Per level: the cubes that may take the low branch (they do not
    # hold the variable at 1) and the high branch (not held at 0).
    via_low = [everything] * manager.num_vars
    via_high = [everything] * manager.num_vars
    deepest = -1
    for index, cube in enumerate(cubes):
        if cube.manager is not manager:
            raise ValueError("cannot combine functions from different managers")
        bit = 1 << index
        node = cube.node
        if node == FALSE_ID:
            raise BDDError(f"meets() takes cubes; argument {index} is FALSE")
        while node != TRUE_ID:
            level = node_level[node]
            if node_low[node] == FALSE_ID:
                via_low[level] &= ~bit
                node = node_high[node]
            elif node_high[node] == FALSE_ID:
                via_high[level] &= ~bit
                node = node_low[node]
            else:
                raise BDDError(
                    f"meets() takes cubes; argument {index} is not a cube")
            deepest = max(deepest, level)
    memo = {FALSE_ID: 0, TRUE_ID: everything}

    def visit(node: int) -> int:
        mask = memo.get(node)
        if mask is None:
            level = node_level[node]
            if level > deepest:
                return everything
            manager.cache_lookups += 1
            mask = ((visit(node_low[node]) & via_low[level])
                    | (visit(node_high[node]) & via_high[level]))
            memo[node] = mask
        return mask

    mask = visit(f.node)
    return [bool(mask >> index & 1) for index in range(len(cubes))]


# ----------------------------------------------------------------------
# Cofactor / restrict
# ----------------------------------------------------------------------
def cofactor(f: Function, literals: Dict[str, bool]) -> Function:
    """Cofactor of ``f`` with respect to a cube of literals.

    ``literals`` maps variable names to the value they are fixed to.  The
    result does not depend on the fixed variables; this corresponds to the
    paper's cube-generalised cofactor ``f_c``.
    """
    manager = f.manager
    if not literals:
        return f
    assignment = {manager.level_of(name): bool(value)
                  for name, value in literals.items()}
    key_id = manager.intern_key(("cof", frozenset(assignment.items())))
    result = _cofactor(manager, f.node, assignment, max(assignment), key_id)
    return manager._wrap(result)


def _cofactor(manager: BDDManager, node: int,
              assignment: Dict[int, bool], top: int, key_id: int) -> int:
    if manager.is_terminal(node):
        return node
    level = manager.node_level(node)
    if level > top:
        return node
    cache = manager._cof_cache
    key = (node, key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    if level in assignment:
        child = (manager.node_high(node) if assignment[level]
                 else manager.node_low(node))
        result = _cofactor(manager, child, assignment, top, key_id)
    else:
        low = _cofactor(manager, manager.node_low(node), assignment, top,
                        key_id)
        high = _cofactor(manager, manager.node_high(node), assignment, top,
                         key_id)
        result = manager._mk(level, low, high) if low != high else low
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


# ----------------------------------------------------------------------
# Transfer: cofactor, product and difference in one pass
# ----------------------------------------------------------------------
class TransferSteps:
    """A resolved cube of per-variable ``(require, assign)`` steps.

    ``steps`` maps variable names to ``(require, assign)`` pairs.  The
    steps are sorted by level once and every suffix of them is interned
    (:meth:`~repro.bdd.manager.BDDManager.intern_key`), so a
    :func:`transfer` cache probe hashes three integers.  Build one per
    step cube and reuse it: resolution is the only per-cube cost.
    """

    __slots__ = ("manager", "levels", "requires", "assigns", "ids")

    def __init__(self, manager: BDDManager,
                 steps: Dict[str, Tuple[bool, bool]]) -> None:
        resolved = sorted((manager.level_of(name), bool(require),
                           bool(assign))
                          for name, (require, assign) in steps.items())
        self.manager = manager
        self.levels = tuple(level for level, _, _ in resolved)
        self.requires = tuple(require for _, require, _ in resolved)
        self.assigns = tuple(assign for _, _, assign in resolved)
        self.ids = tuple(manager.intern_key(("transfer", tuple(resolved[i:])))
                         for i in range(len(resolved)))


def transfer(f: Function, steps: TransferSteps,
             drop: Optional[Function] = None) -> Function:
    """``((f|require) & assign) - drop`` in one recursion.

    ``f|require`` is the cofactor of ``f`` by the cube of the steps'
    required values and ``assign`` the cube of their assigned values:
    every state of ``f`` that holds each step variable at its required
    value is moved to the assigned value, and the states in ``drop``
    (default: none) are left out of the result.  When every ingredient
    of an image step is a cube over the step variables -- the firing
    functions of Section 4 are -- the whole step is one call.

    At a step level the recursion follows ``f``'s required branch,
    cofactors ``drop`` by the assigned value and emits the assigned
    literal (a level ``f`` skips gets the literal inserted); above it,
    it is a plain Shannon expansion of ``f`` and ``drop``; below the
    last step, it is :meth:`~repro.bdd.manager.BDDManager.apply_diff`.
    """
    manager = f.manager
    if steps.manager is not manager or (drop is not None
                                        and drop.manager is not manager):
        raise ValueError("cannot combine functions from different managers")
    drop_node = FALSE_ID if drop is None else drop.node
    return manager._wrap(_transfer(manager, f.node, drop_node, steps, 0))


def _transfer(manager: BDDManager, f: int, drop: int, steps: TransferSteps,
              index: int) -> int:
    if f == FALSE_ID or drop == TRUE_ID:
        return FALSE_ID
    if index == len(steps.levels):
        return manager.apply_diff(f, drop)
    cache = manager._transfer_cache
    key = (f, drop, steps.ids[index])
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    # The splits are inlined rather than calling _apply_children or
    # _cofactors_at: this is every firing's recursion, and the two extra
    # calls per node cost ~7% of an all-checks run.
    node_level, node_low, node_high = (manager._level, manager._low,
                                       manager._high)
    step_level = steps.levels[index]
    level_f = node_level[f]
    level_drop = node_level[drop]
    level = min(level_f, level_drop)
    if level < step_level:
        if level_f == level:
            f0, f1 = node_low[f], node_high[f]
        else:
            f0 = f1 = f
        if level_drop == level:
            drop0, drop1 = node_low[drop], node_high[drop]
        else:
            drop0 = drop1 = drop
        low = _transfer(manager, f0, drop0, steps, index)
        high = _transfer(manager, f1, drop1, steps, index)
        result = manager._mk(level, low, high)
    else:
        assign = steps.assigns[index]
        if level_f == step_level:
            f = node_high[f] if steps.requires[index] else node_low[f]
        if level_drop == step_level:
            drop = node_high[drop] if assign else node_low[drop]
        rest = _transfer(manager, f, drop, steps, index + 1)
        if assign:
            result = manager._mk(step_level, FALSE_ID, rest)
        else:
            result = manager._mk(step_level, rest, FALSE_ID)
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


# ----------------------------------------------------------------------
# Saturation: the least fixpoint of a set of local events, node by node
# ----------------------------------------------------------------------
#: ``SaturationEvents.next_top`` entry of a level with no event top at
#: or below it (sorts after every variable level).
_NO_TOP = 1 << 30


class _Event:
    """One event of a :class:`SaturationEvents` set: its steps plus the
    interned :func:`_fire` cache key of every step suffix."""

    __slots__ = ("levels", "requires", "assigns", "keys")

    def __init__(self, steps: TransferSteps, set_id: int) -> None:
        manager = steps.manager
        self.levels = steps.levels
        self.requires = steps.requires
        self.assigns = steps.assigns
        self.keys = tuple(manager.intern_key(("fire", set_id, ident))
                          for ident in steps.ids)


class SaturationEvents:
    """A set of :class:`TransferSteps` events, grouped for :func:`saturate`.

    An event's *top* is its first (smallest) step level.  ``by_top`` maps
    each top level to its events, in the given order, and
    ``next_top[k]`` is the smallest top at or below level ``k``.  The set
    is interned by content (duplicates and step-less events dropped), so
    two sets of the same events share every saturation cache entry.
    """

    __slots__ = ("manager", "ident", "by_top", "next_top")

    def __init__(self, manager: BDDManager,
                 events: Sequence[TransferSteps]) -> None:
        unique: Dict[int, TransferSteps] = {}
        for steps in events:
            if steps.manager is not manager:
                raise ValueError(
                    "cannot combine functions from different managers")
            if steps.levels:
                unique.setdefault(steps.ids[0], steps)
        self.manager = manager
        self.ident = manager.intern_key(("saturate", tuple(sorted(unique))))
        groups: Dict[int, List[_Event]] = {}
        for steps in unique.values():
            groups.setdefault(steps.levels[0], []).append(
                _Event(steps, self.ident))
        self.by_top = {top: tuple(group) for top, group in groups.items()}
        next_top = [_NO_TOP] * (manager.num_vars + 1)
        for level in range(manager.num_vars - 1, -1, -1):
            next_top[level] = (level if level in self.by_top
                               else next_top[level + 1])
        self.next_top = tuple(next_top)


#: ``on_round(level, firings, fresh)`` of :func:`saturate`.
RoundHook = Callable[[int, int, Tuple[int, ...]], None]


def saturate(f: Function, events: SaturationEvents,
             on_round: Optional[RoundHook] = None) -> Function:
    """The least superset of ``f`` closed under every event.

    Firing an event moves each state whose step variables hold their
    required values to the assigned values (:func:`transfer`); the
    result is every state reachable from ``f`` by any sequence of
    firings.  Saturation (Ciardo, Lüttgen & Siminiceanu, TACAS 2001)
    computes it bottom-up: a node at level ``k`` is *saturated* once it
    is closed under every event whose top is ``k`` or deeper.
    ``_saturate`` saturates both children, then runs the local fixpoint
    of the events whose top is ``k``; ``_fire`` applies an event's
    remaining steps and saturates every node it builds.  A level a node
    skips is a don't-care node there, so events whose top falls on it
    still fire.  Both recursions are memoised per event set.

    ``on_round`` is called after every local-fixpoint round that fired
    an event, with the level, the number of firings and the firing
    results that grew the node (empty for the round that confirms the
    local fixpoint).
    """
    manager = f.manager
    if events.manager is not manager:
        raise ValueError("cannot combine functions from different managers")
    return manager._wrap(_saturate(manager, events, on_round, f.node, 0))


def _saturate(manager: BDDManager, events: SaturationEvents,
              on_round: Optional[RoundHook], node: int, level: int) -> int:
    if node <= TRUE_ID:
        return node
    top = events.next_top[level]
    if top == _NO_TOP:
        return node  # no event fires at or below this level
    node_level = manager._level[node]
    level = top if top < node_level else node_level
    cache = manager._sat_cache
    key = (node, level, events.ident)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    if node_level == level:
        low = _saturate(manager, events, on_round, manager._low[node],
                        level + 1)
        high = _saturate(manager, events, on_round, manager._high[node],
                         level + 1)
    else:
        low = high = _saturate(manager, events, on_round, node, level + 1)
    group = events.by_top.get(level)
    if group is None:
        result = manager._mk(level, low, high)
    else:
        result = _local_fixpoint(manager, events, on_round, group, level,
                                 low, high)
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


def _fire(manager: BDDManager, events: SaturationEvents,
          on_round: Optional[RoundHook], event: _Event, node: int,
          index: int, level: int) -> int:
    """Steps ``index..`` of ``event`` applied to ``node``, saturated.

    ``node`` is saturated at ``level`` (closed under every event whose
    top is ``level`` or deeper), and every remaining step is at
    ``level`` or deeper -- so past the last step the node is the answer.
    """
    if node == FALSE_ID:
        return FALSE_ID
    if index == len(event.levels):
        return node
    step_level = event.levels[index]
    node_level = manager._level[node]
    level = min(step_level, node_level, events.next_top[level])
    cache = manager._fire_cache
    key = (node, level, event.keys[index])
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    if level < step_level:
        if node_level == level:
            node0, node1 = manager._low[node], manager._high[node]
        else:
            node0 = node1 = node
        low = _fire(manager, events, on_round, event, node0, index,
                    level + 1)
        high = _fire(manager, events, on_round, event, node1, index,
                     level + 1)
    else:
        if node_level == level:
            node = (manager._high[node] if event.requires[index]
                    else manager._low[node])
        rest = _fire(manager, events, on_round, event, node, index + 1,
                     level + 1)
        if event.assigns[index]:
            low, high = FALSE_ID, rest
        else:
            low, high = rest, FALSE_ID
    group = events.by_top.get(level)
    if group is None or low == high == FALSE_ID:
        result = manager._mk(level, low, high)
    else:
        result = _local_fixpoint(manager, events, on_round, group, level,
                                 low, high)
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


def _local_fixpoint(manager: BDDManager, events: SaturationEvents,
                    on_round: Optional[RoundHook],
                    group: Tuple[_Event, ...], level: int, low: int,
                    high: int) -> int:
    """Close the node ``(level, low, high)`` under the events whose top
    is ``level``; both children are saturated one level down.

    Each round fires every event whose source child changed since it
    last fired; the fixpoint is reached when a round fires nothing or
    grows nothing.
    """
    children = [low, high]
    # The source each event last fired on; FALSE never needs firing.
    fired_on = [FALSE_ID] * len(group)
    while True:
        firings = 0
        fresh: List[int] = []
        for position, event in enumerate(group):
            source = children[event.requires[0]]
            if source == fired_on[position]:
                continue
            fired_on[position] = source
            firings += 1
            image = _fire(manager, events, on_round, event, source, 1,
                          level + 1)
            target = children[event.assigns[0]]
            merged = manager.apply_or(target, image)
            if merged != target:
                children[event.assigns[0]] = merged
                fresh.append(image)
        if not firings:
            break
        if on_round is not None:
            on_round(level, firings, tuple(fresh))
        if not fresh:
            break
    return manager._mk(level, children[0], children[1])


# ----------------------------------------------------------------------
# Composition and renaming
# ----------------------------------------------------------------------
def compose(f: Function, substitutions: Dict[str, Function]) -> Function:
    """Simultaneous composition: replace each variable by a function.

    Implemented by a single recursive pass that rebuilds the function with
    ``ite`` at substituted variables, so simultaneous substitution is exact
    (no sequential-composition artefacts).
    """
    manager = f.manager
    if not substitutions:
        return f
    by_level: Dict[int, int] = {}
    for name, g in substitutions.items():
        if g.manager is not manager:
            raise ValueError("substitution functions must share the manager")
        by_level[manager.level_of(name)] = g.node
    key_id = manager.intern_key(("compose", frozenset(by_level.items())))
    result = _compose(manager, f.node, by_level, key_id)
    return manager._wrap(result)


def _compose(manager: BDDManager, node: int, by_level: Dict[int, int],
             key_id: int) -> int:
    if manager.is_terminal(node):
        return node
    cache = manager._op_cache
    key = (node, key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    level = manager.node_level(node)
    low = _compose(manager, manager.node_low(node), by_level, key_id)
    high = _compose(manager, manager.node_high(node), by_level, key_id)
    replacement = by_level.get(level)
    if replacement is None:
        replacement = manager._mk(level, FALSE_ID, TRUE_ID)
    result = manager.ite(replacement, high, low)
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


def rename(f: Function, mapping: Dict[str, str]) -> Function:
    """Rename variables according to ``mapping`` (old name -> new name).

    Every target variable must already be declared.  Renaming is a special
    case of composition with projection functions.
    """
    manager = f.manager
    substitutions = {}
    for old, new in mapping.items():
        if new not in manager.variables:
            raise BDDOrderError(f"rename target {new!r} is not declared")
        substitutions[old] = manager.var(new)
    return compose(f, substitutions)
