"""Derived BDD operations: quantification, cofactors, the image kernel
:func:`transfer`, saturation and the queries :func:`meets` and
:func:`disjoint`.

All functions here take :class:`~repro.bdd.function.Function` handles.
Each operation memoises its recursion in a dedicated cache on the
manager (quantification, cofactor, ``transfer`` and both saturation
recursions each own one), keyed by the node id plus a small interned id
of the operation parameter
(:meth:`~repro.bdd.manager.BDDManager.intern_key`) -- so cache probes
hash integer tuples instead of re-hashing frozensets on every visit.
The two queries build no node, so their memos live for one call.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.bdd.function import Function
from repro.bdd.manager import BDDManager, FALSE_ID, TRUE_ID


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
    result = _quantify(manager, f.node, levels, max(levels), key_id)
    return manager._wrap(result)


def _quantify(manager: BDDManager, node: int, levels: FrozenSet[int],
              top: int, key_id: int) -> int:
    level = manager._level[node]
    if level > top:
        # Every quantified variable is above this node (terminals sit
        # below every level): nothing to abstract.
        return node
    cache = manager._quant_cache
    key = (node, key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    low = _quantify(manager, manager._low[node], levels, top, key_id)
    if level in levels and low == TRUE_ID:
        # The low branch already decides the abstraction: the high
        # branch is never visited.
        result = low
    else:
        high = _quantify(manager, manager._high[node], levels, top, key_id)
        if level not in levels:
            result = manager._mk(level, low, high)
        else:
            result = manager.apply_or(low, high)
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


# ----------------------------------------------------------------------
# Queries: which of many cubes does f meet, does f meet g?
# ----------------------------------------------------------------------
def meets(f: Function, cubes: Sequence[Iterable[Tuple[int, bool]]]
          ) -> List[bool]:
    """``[not (f & manager.cube_at(literals)).is_false() for literals in
    cubes]`` in one pass.

    Each cube is a list of ``(level, value)`` literals, the form
    :meth:`~repro.bdd.manager.BDDManager.cube_at` takes; the empty list
    is the TRUE cube, and a cube holding one level at both values meets
    nothing.  No cube BDD is built: every node of ``f`` gets the bitmask
    of the cubes it meets, bottom up.  The TRUE terminal meets every
    cube, FALSE none, and a node at level ``k`` meets a cube through its
    low child unless the cube holds the variable at 1, through its high
    child unless it holds it at 0.  A level ``f`` skips is free, and
    below the deepest cube literal every node but FALSE meets every
    cube.  No product is built and no node is created; each node
    visited counts one ``cache_lookups``.
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
    for index, literals in enumerate(cubes):
        bit = 1 << index
        for level, value in literals:
            if value:
                via_low[level] &= ~bit
            else:
                via_high[level] &= ~bit
            if level > deepest:
                deepest = level
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

    try:
        mask = visit(f.node)
    finally:
        visit = None  # the closure reaches itself through this cell
    return [bool(mask >> index & 1) for index in range(len(cubes))]


def disjoint(f: Function, g: Function) -> bool:
    """``(f & g).is_false()`` without building the product.

    A walk over the node pairs the product's recursion would visit.  It
    stops at the first pair that meets -- a path to TRUE in both -- and
    remembers only the pairs found disjoint, so no node is built and
    the memo lives for one call.  Each pair visited counts one
    ``cache_lookups``.
    """
    manager = f.manager
    g_node = f._other_node(g)  # the connectives' type and manager checks
    node_level, node_low, node_high = (manager._level, manager._low,
                                       manager._high)
    apart = set()

    def meet(f: int, g: int) -> bool:
        if f == FALSE_ID or g == FALSE_ID:
            return False
        if f == TRUE_ID or g == TRUE_ID or f == g:
            return True
        if f > g:  # commutative: one memo entry per unordered pair
            f, g = g, f
        key = (f, g)
        if key in apart:
            return False
        manager.cache_lookups += 1
        level, level_g = node_level[f], node_level[g]
        if level <= level_g:
            f0, f1 = node_low[f], node_high[f]
        else:
            f0 = f1 = f
        if level_g <= level:
            g0, g1 = node_low[g], node_high[g]
        else:
            g0 = g1 = g
        if meet(f0, g0) or meet(f1, g1):
            return True
        apart.add(key)
        return False

    try:
        return not meet(f.node, g_node)
    finally:
        meet = None  # the closure reaches itself through this cell


# ----------------------------------------------------------------------
# Cofactor / restrict
# ----------------------------------------------------------------------
def cofactor(f: Function, literals: Dict[str, bool]) -> Function:
    """Cofactor of ``f`` with respect to a cube of literals.

    ``literals`` maps variable names to the value they are fixed to.  The
    result does not depend on the fixed variables; this corresponds to the
    paper's cube-generalised cofactor ``f_c``.  No check calls it: it is
    the oracle the tests hold :func:`transfer` (whose ``f|require`` is
    this cofactor) and :func:`exist` (the sum of the cofactors) to.
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
    level = manager._level[node]
    if level > top:  # terminals included: they sit below every level
        return node
    cache = manager._cof_cache
    key = (node, key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    if level in assignment:
        child = (manager._high[node] if assignment[level]
                 else manager._low[node])
        result = _cofactor(manager, child, assignment, top, key_id)
    else:
        low = _cofactor(manager, manager._low[node], assignment, top,
                        key_id)
        high = _cofactor(manager, manager._high[node], assignment, top,
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

    ``steps`` maps variable names to ``(require, assign)`` pairs; a
    caller that holds levels already builds the same object with
    :meth:`at_levels`.  The steps are sorted by level once
    (``resolved``).  The first :func:`transfer` interns every suffix of
    them (:meth:`~repro.bdd.manager.BDDManager.intern_key`), as the
    chain ``("transfer", step, tail_id)``, so a cache probe hashes three
    integers.  Steps only ever fired by :func:`saturate` intern nothing
    here (its events key their own chains).  Build one per step cube and
    reuse it: resolution is the only per-cube cost.
    """

    __slots__ = ("manager", "resolved", "levels", "requires", "assigns",
                 "ids")

    def __init__(self, manager: BDDManager,
                 steps: Mapping[str, Tuple[bool, bool]]) -> None:
        self._resolve(manager, sorted(
            (manager.level_of(name), bool(require), bool(assign))
            for name, (require, assign) in steps.items()))

    @classmethod
    def at_levels(cls, manager: BDDManager,
                  resolved: Sequence[Tuple[int, bool, bool]]
                  ) -> "TransferSteps":
        """The steps of ``(level, require, assign)`` triples, sorted by
        level, one per level."""
        steps = cls.__new__(cls)
        steps._resolve(manager, resolved)
        return steps

    def _resolve(self, manager: BDDManager,
                 resolved: Sequence[Tuple[int, bool, bool]]) -> None:
        self.manager = manager
        self.resolved = tuple(resolved)
        self.levels, self.requires, self.assigns = (
            tuple(zip(*self.resolved)) if self.resolved else ((), (), ()))
        #: The interned id of every suffix; ``None`` until the first
        #: :func:`transfer` of these steps.
        self.ids: Optional[Tuple[int, ...]] = None

    def intern(self) -> None:
        """Intern the id of every suffix, once."""
        if self.ids is None:
            self.ids = _intern_chain(self.manager, ("transfer",),
                                     self.resolved)


def _intern_chain(manager: BDDManager, tag: Tuple[object, ...],
                  resolved: Sequence[Tuple[int, bool, bool]]
                  ) -> Tuple[int, ...]:
    """The interned id of every suffix of ``resolved``: the chain
    ``tag + (step, tail_id)``, built from the last step back, so equal
    suffixes get equal ids and ``k`` steps intern ``k`` small keys."""
    ids = []
    tail = None
    for step in reversed(resolved):
        tail = manager.intern_key((*tag, step, tail))
        ids.append(tail)
    return tuple(reversed(ids))


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
    steps.intern()
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
    # The splits are inlined, as in the manager's binary applies: this
    # is every firing's recursion, and two helper calls per node cost
    # ~7% of an all-checks run.
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
    interned :func:`saturate` firing-cache key of every step suffix,
    the chain ``("fire", set_id, step, tail_key)``: two events of one set
    that end in the same steps share those keys' cache entries.
    """

    __slots__ = ("levels", "requires", "assigns", "keys")

    def __init__(self, steps: TransferSteps, set_id: int) -> None:
        self.levels = steps.levels
        self.requires = steps.requires
        self.assigns = steps.assigns
        self.keys = _intern_chain(steps.manager, ("fire", set_id),
                                  steps.resolved)


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
        unique: Dict[Tuple[Tuple[int, bool, bool], ...], TransferSteps] = {}
        for steps in events:
            if steps.manager is not manager:
                raise ValueError(
                    "cannot combine functions from different managers")
            if steps.levels:
                unique.setdefault(steps.resolved, steps)
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
RoundHook = Callable[[int, int, int], None]


def saturate(f: Function, events: SaturationEvents,
             on_round: Optional[RoundHook] = None) -> Function:
    """The least superset of ``f`` closed under every event.

    Firing an event moves each state whose step variables hold their
    required values to the assigned values (:func:`transfer`); the
    result is every state reachable from ``f`` by any sequence of
    firings.  Saturation (Ciardo, Lüttgen & Siminiceanu, TACAS 2001)
    computes it bottom-up: a node at level ``k`` is *saturated* once it
    is closed under every event whose top is ``k`` or deeper.
    ``saturate_node`` saturates both children, then runs the local
    fixpoint of the events whose top is ``k``; ``fire`` applies an
    event's remaining steps and saturates every node it builds.  A level
    a node skips is a don't-care node there, so events whose top falls
    on it still fire.  Both recursions are memoised per event set.

    The three recursions are closures over the node arrays, the two
    caches and the event set's tables, read once per call.  They count
    their cache lookups and hits locally and add them to the manager's
    counters when the call ends, also when ``on_round`` raises, so the
    counters stay exact.

    ``on_round`` is called after every local-fixpoint round that fired
    an event, with the level, the number of firings and the number of
    firing results that grew the node (0 for the round that confirms
    the local fixpoint).
    """
    manager = f.manager
    if events.manager is not manager:
        raise ValueError("cannot combine functions from different managers")
    node_level, node_low, node_high = (manager._level, manager._low,
                                       manager._high)
    mk, apply_or = manager._mk, manager.apply_or
    sat_cache, fire_cache = manager._sat_cache, manager._fire_cache
    limit, evict = manager._cache_limit, manager._evict_oldest
    next_top, by_top, ident = events.next_top, events.by_top, events.ident
    lookups = hits = 0

    def saturate_node(node: int, level: int) -> int:
        nonlocal lookups, hits
        if node <= TRUE_ID:
            return node
        top = next_top[level]
        if top == _NO_TOP:
            return node  # no event fires at or below this level
        level_node = node_level[node]
        level = top if top < level_node else level_node
        key = (node, level, ident)
        lookups += 1
        cached = sat_cache.get(key)
        if cached is not None:
            hits += 1
            return cached
        if level_node == level:
            low = saturate_node(node_low[node], level + 1)
            high = saturate_node(node_high[node], level + 1)
        else:
            low = high = saturate_node(node, level + 1)
        group = by_top.get(level)
        if group is None:
            result = mk(level, low, high)
        else:
            result = local_fixpoint(group, level, low, high)
        if len(sat_cache) >= limit:
            evict(sat_cache)
        sat_cache[key] = result
        return result

    def fire(event: _Event, node: int, index: int, level: int) -> int:
        """Steps ``index..`` of ``event`` applied to ``node``, saturated.

        ``node`` is saturated at ``level`` (closed under every event
        whose top is ``level`` or deeper), and every remaining step is
        at ``level`` or deeper -- so past the last step the node is the
        answer.
        """
        nonlocal lookups, hits
        if node == FALSE_ID:
            return FALSE_ID
        levels = event.levels
        if index == len(levels):
            return node
        step_level = levels[index]
        level_node = node_level[node]
        # The smallest of the step's, the node's and the next top's
        # level, without a call to ``min``.
        level = next_top[level]
        if step_level < level:
            level = step_level
        if level_node < level:
            level = level_node
        key = (node, level, event.keys[index])
        lookups += 1
        cached = fire_cache.get(key)
        if cached is not None:
            hits += 1
            return cached
        if level < step_level:
            if level_node == level:
                node0, node1 = node_low[node], node_high[node]
            else:
                node0 = node1 = node
            low = fire(event, node0, index, level + 1)
            high = fire(event, node1, index, level + 1)
        else:
            if level_node == level:
                node = (node_high[node] if event.requires[index]
                        else node_low[node])
            rest = fire(event, node, index + 1, level + 1)
            if event.assigns[index]:
                low, high = FALSE_ID, rest
            else:
                low, high = rest, FALSE_ID
        group = by_top.get(level)
        if group is None or low == high == FALSE_ID:
            result = mk(level, low, high)
        else:
            result = local_fixpoint(group, level, low, high)
        if len(fire_cache) >= limit:
            evict(fire_cache)
        fire_cache[key] = result
        return result

    def local_fixpoint(group: Tuple[_Event, ...], level: int, low: int,
                       high: int) -> int:
        """Close the node ``(level, low, high)`` under the events whose
        top is ``level``; both children are saturated one level down.

        Each round fires every event whose source child changed since it
        last fired; the fixpoint is reached when a round fires nothing
        or grows nothing.
        """
        children = [low, high]
        # The source each event last fired on; FALSE never needs firing.
        fired_on = [FALSE_ID] * len(group)
        while True:
            firings = fresh = 0
            for position, event in enumerate(group):
                source = children[event.requires[0]]
                if source == fired_on[position]:
                    continue
                fired_on[position] = source
                firings += 1
                image = fire(event, source, 1, level + 1)
                target = children[event.assigns[0]]
                merged = apply_or(target, image)
                if merged != target:
                    children[event.assigns[0]] = merged
                    fresh += 1
            if not firings:
                break
            if on_round is not None:
                on_round(level, firings, fresh)
            if not fresh:
                break
        return mk(level, children[0], children[1])

    try:
        return manager._wrap(saturate_node(f.node, 0))
    finally:
        manager.cache_lookups += lookups
        manager.cache_hits += hits
        # The closures reach each other through their cells; emptying
        # the cells breaks that cycle, so the manager they hold is freed
        # by reference counting, not left for the cycle collector.
        saturate_node = fire = local_fixpoint = None
