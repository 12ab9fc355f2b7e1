"""The BDD manager: node storage, unique table and ITE.

The manager owns every node.  A node is identified by a small integer.
Identifier ``0`` is the constant FALSE terminal and identifier ``1`` is the
constant TRUE terminal.  Every internal node is a triple
``(level, low, high)`` where ``level`` is the position of the decision
variable in the global variable order (smaller level = closer to the root)
and ``low`` / ``high`` are the identifiers of the cofactors for the variable
being 0 / 1 respectively.

Canonicity invariants maintained by :meth:`BDDManager._mk`:

* no node has ``low == high`` (redundant test elimination),
* no two distinct identifiers describe the same ``(level, low, high)``
  triple (sharing through the unique table).

Because edges are never complemented, two functions are equal if and only
if their root identifiers are equal.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bdd.function import Function

FALSE_ID = 0
TRUE_ID = 1
_TERMINAL_LEVEL = 1 << 30  # terminals sort after every variable level


class BDDError(Exception):
    """Base class for errors raised by the BDD engine."""


class BDDOrderError(BDDError):
    """Raised when an unknown variable is used or an ordering is invalid."""


class BDDManager:
    """Owns BDD nodes and implements the core ``ite`` operation.

    Parameters
    ----------
    variables:
        Optional initial variable order (a sequence of distinct names).
        Variables can also be added later with :meth:`add_var`; new
        variables are appended at the end of the order.
    cache_limit:
        Soft limit on the number of entries in each operation cache.
        When a cache exceeds the limit its *oldest-inserted half* is
        evicted (generational eviction by insertion order -- hits do not
        refresh an entry, so this is FIFO by creation, not LRU).  Recent
        generations survive instead of being thrown away wholesale, so
        long sweeps stop paying a full cold-cache rebuild per overflow.

    Examples
    --------
    >>> mgr = BDDManager(["a", "b"])
    >>> f = mgr.var("a") & ~mgr.var("b")
    >>> f.is_false()
    False
    >>> (f & mgr.var("b")).is_false()
    True
    """

    def __init__(self, variables: Optional[Iterable[str]] = None,
                 cache_limit: int = 1_000_000) -> None:
        # Node storage: parallel lists indexed by node id.
        self._level: List[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._low: List[int] = [FALSE_ID, TRUE_ID]
        self._high: List[int] = [FALSE_ID, TRUE_ID]
        # Unique table: (level, low, high) -> node id.
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Variable order.
        self._var2level: Dict[str, int] = {}
        self._level2var: List[str] = []
        # Operation caches.  ``ite``, negation and every binary
        # connective have their own table with their own terminal
        # short-circuits (see apply_and & friends); the derived operators
        # of repro.bdd.operators (cofactor, quantification, relational
        # product, the image kernel ``transfer`` and both saturation
        # recursions) get dedicated memoisation tables as well, so a
        # flood of e.g. conjunctions can never evict the image results
        # the traversal lives on.  Every table is in ``_evictable``,
        # and ``cache_limit`` bounds each one.
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._or_cache: Dict[Tuple[int, int], int] = {}
        self._xor_cache: Dict[Tuple[int, int], int] = {}
        self._diff_cache: Dict[Tuple[int, int], int] = {}
        self._op_cache: Dict[Tuple, int] = {}
        self._cof_cache: Dict[Tuple[int, int], int] = {}
        self._quant_cache: Dict[Tuple[bool, int, int], int] = {}
        self._andex_cache: Dict[Tuple[int, int, int], int] = {}
        self._transfer_cache: Dict[Tuple[int, int, int], int] = {}
        self._sat_cache: Dict[Tuple[int, int, int], int] = {}
        self._fire_cache: Dict[Tuple[int, int, int], int] = {}
        self._evictable = (
            self._ite_cache, self._not_cache, self._and_cache,
            self._or_cache, self._xor_cache, self._diff_cache,
            self._op_cache, self._cof_cache, self._quant_cache,
            self._andex_cache, self._transfer_cache, self._sat_cache,
            self._fire_cache)
        # Interning table turning the frozensets that parameterise the
        # derived operators (quantified level sets, cofactor cubes, ...)
        # into small integers, so their cache keys hash in O(1).
        self._key_ids: Dict[object, int] = {}
        self._cache_limit = cache_limit
        # Statistics.
        self.created_nodes = 2
        self.cache_lookups = 0
        self.cache_hits = 0
        self.cache_evictions = 0
        if variables is not None:
            for name in variables:
                self.add_var(name)

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> "Function":
        """Declare a new variable appended at the end of the current order.

        Returns the projection function of the variable.  Declaring an
        already-known variable is an error.
        """
        if name in self._var2level:
            raise BDDOrderError(f"variable {name!r} already declared")
        level = len(self._level2var)
        self._var2level[name] = level
        self._level2var.append(name)
        return self.var(name)

    def var(self, name: str) -> "Function":
        """Return the projection function of an existing variable."""
        try:
            level = self._var2level[name]
        except KeyError as exc:
            raise BDDOrderError(f"unknown variable {name!r}") from exc
        node = self._mk(level, FALSE_ID, TRUE_ID)
        return self._wrap(node)

    def level_of(self, name: str) -> int:
        """Return the level (order position) of a variable."""
        try:
            return self._var2level[name]
        except KeyError as exc:
            raise BDDOrderError(f"unknown variable {name!r}") from exc

    def var_at_level(self, level: int) -> str:
        """Return the variable name at a given level."""
        return self._level2var[level]

    @property
    def variables(self) -> List[str]:
        """The variable names in their current order (root to leaves)."""
        return list(self._level2var)

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._level2var)

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    @property
    def true(self) -> "Function":
        """The constant TRUE function."""
        return self._wrap(TRUE_ID)

    @property
    def false(self) -> "Function":
        """The constant FALSE function."""
        return self._wrap(FALSE_ID)

    # ------------------------------------------------------------------
    # Node primitives
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)``."""
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        node = len(self._level)
        self._level.append(level)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        self.created_nodes += 1
        return node

    def node_level(self, node: int) -> int:
        """Level of a node (terminals have a level past every variable)."""
        return self._level[node]

    def node_low(self, node: int) -> int:
        """Low (else) child of an internal node."""
        return self._low[node]

    def node_high(self, node: int) -> int:
        """High (then) child of an internal node."""
        return self._high[node]

    def is_terminal(self, node: int) -> bool:
        """True for the two constant nodes."""
        return node <= TRUE_ID

    def _wrap(self, node: int) -> Function:
        return Function(self, node)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else on node identifiers: ``f·g + f'·h``.

        This is the universal binary operation; every two-argument boolean
        connective is expressed through it.
        """
        # Terminal cases.
        if f == TRUE_ID:
            return g
        if f == FALSE_ID:
            return h
        if g == h:
            return g
        if g == TRUE_ID and h == FALSE_ID:
            return f
        key = (f, g, h)
        cache = self._ite_cache
        self.cache_lookups += 1
        cached = cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        level = min(self._level[f], self._level[g], self._level[h])
        f0, f1 = self._cofactors_at(f, level)
        g0, g1 = self._cofactors_at(g, level)
        h0, h1 = self._cofactors_at(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(level, low, high)
        if len(cache) >= self._cache_limit:
            self._evict_oldest(cache)
        cache[key] = result
        return result

    def _cofactors_at(self, node: int, level: int) -> Tuple[int, int]:
        """Return the (low, high) cofactors of ``node`` w.r.t. ``level``."""
        if self._level[node] == level:
            return self._low[node], self._high[node]
        return node, node

    def negate(self, node: int) -> int:
        """Complement of the function rooted at ``node``."""
        if node == TRUE_ID:
            return FALSE_ID
        if node == FALSE_ID:
            return TRUE_ID
        cache = self._not_cache
        self.cache_lookups += 1
        cached = cache.get(node)
        if cached is not None:
            self.cache_hits += 1
            return cached
        result = self._mk(
            self._level[node],
            self.negate(self._low[node]),
            self.negate(self._high[node]),
        )
        if len(cache) >= self._cache_limit:
            self._evict_oldest(cache)
        cache[node] = result
        return result

    def _apply_children(self, f: int, g: int) -> Tuple[int, int, int, int, int]:
        """Top level and the four cofactors of a binary apply step."""
        level_f = self._level[f]
        level_g = self._level[g]
        if level_f <= level_g:
            level = level_f
            f0, f1 = self._low[f], self._high[f]
        else:
            level = level_g
            f0 = f1 = f
        if level_g <= level_f:
            g0, g1 = self._low[g], self._high[g]
        else:
            g0 = g1 = g
        return level, f0, f1, g0, g1

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction on node identifiers (specialised, own cache)."""
        if f == g:
            return f
        if f == FALSE_ID or g == FALSE_ID:
            return FALSE_ID
        if f == TRUE_ID:
            return g
        if g == TRUE_ID:
            return f
        if f > g:  # commutative: canonical operand order halves the cache
            f, g = g, f
        key = (f, g)
        cache = self._and_cache
        self.cache_lookups += 1
        cached = cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        level, f0, f1, g0, g1 = self._apply_children(f, g)
        low = self.apply_and(f0, g0)
        high = self.apply_and(f1, g1)
        result = self._mk(level, low, high)
        if len(cache) >= self._cache_limit:
            self._evict_oldest(cache)
        cache[key] = result
        return result

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction on node identifiers (specialised, own cache)."""
        if f == g:
            return f
        if f == TRUE_ID or g == TRUE_ID:
            return TRUE_ID
        if f == FALSE_ID:
            return g
        if g == FALSE_ID:
            return f
        if f > g:
            f, g = g, f
        key = (f, g)
        cache = self._or_cache
        self.cache_lookups += 1
        cached = cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        level, f0, f1, g0, g1 = self._apply_children(f, g)
        low = self.apply_or(f0, g0)
        high = self.apply_or(f1, g1)
        result = self._mk(level, low, high)
        if len(cache) >= self._cache_limit:
            self._evict_oldest(cache)
        cache[key] = result
        return result

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or on node identifiers (specialised, own cache)."""
        if f == g:
            return FALSE_ID
        if f == FALSE_ID:
            return g
        if g == FALSE_ID:
            return f
        if f == TRUE_ID:
            return self.negate(g)
        if g == TRUE_ID:
            return self.negate(f)
        if f > g:
            f, g = g, f
        key = (f, g)
        cache = self._xor_cache
        self.cache_lookups += 1
        cached = cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        level, f0, f1, g0, g1 = self._apply_children(f, g)
        low = self.apply_xor(f0, g0)
        high = self.apply_xor(f1, g1)
        result = self._mk(level, low, high)
        if len(cache) >= self._cache_limit:
            self._evict_oldest(cache)
        cache[key] = result
        return result

    def apply_diff(self, f: int, g: int) -> int:
        """Difference ``f · g'`` on node identifiers (specialised).

        This is the frontier subtraction the Figure 5 traversal performs
        on every image, so it gets its own cache and short-circuits
        instead of paying a negation plus a generic ``ite``.
        """
        if f == FALSE_ID or g == TRUE_ID or f == g:
            return FALSE_ID
        if g == FALSE_ID:
            return f
        if f == TRUE_ID:
            return self.negate(g)
        key = (f, g)
        cache = self._diff_cache
        self.cache_lookups += 1
        cached = cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        level, f0, f1, g0, g1 = self._apply_children(f, g)
        low = self.apply_diff(f0, g0)
        high = self.apply_diff(f1, g1)
        result = self._mk(level, low, high)
        if len(cache) >= self._cache_limit:
            self._evict_oldest(cache)
        cache[key] = result
        return result

    def apply_implies(self, f: int, g: int) -> int:
        """Implication ``f' + g`` on node identifiers."""
        return self.negate(self.apply_diff(f, g))

    # ------------------------------------------------------------------
    # Cube helpers
    # ------------------------------------------------------------------
    def cube(self, literals: Dict[str, bool]) -> "Function":
        """Build the conjunction of literals given as ``{name: polarity}``.

        ``polarity`` True means the positive literal.  The empty dictionary
        yields the constant TRUE.
        """
        # Build the cube bottom-up in reverse level order so every _mk call
        # is constant time (no need for full ite).
        items = sorted(
            ((self.level_of(name), value) for name, value in literals.items()),
            reverse=True,
        )
        node = TRUE_ID
        for level, value in items:
            if value:
                node = self._mk(level, FALSE_ID, node)
            else:
                node = self._mk(level, node, FALSE_ID)
        return self._wrap(node)

    # ------------------------------------------------------------------
    # Cache / memory management
    # ------------------------------------------------------------------
    def _evict_oldest(self, cache: Dict) -> None:
        """Generational eviction: drop the oldest-*inserted* half.

        Dictionaries iterate in insertion order, so the first half of the
        keys are the entries created longest ago (hits do not reorder --
        deliberately: probes stay a plain ``get``, at the cost of FIFO
        rather than true LRU eviction).  Keeping the newer generation
        bounds memory like the old clear-everything policy did, without
        the repeated full cold-cache rebuilds.
        """
        drop = len(cache) - self._cache_limit // 2
        for key in list(islice(iter(cache), drop)):
            del cache[key]
        self.cache_evictions += 1

    def intern_key(self, key: object) -> int:
        """Intern a hashable operation parameter to a small integer.

        The derived operators of :mod:`repro.bdd.operators` are
        parameterised by frozensets (quantified level sets, cofactor
        cubes); hashing those on every cache probe is where a naive
        memoisation spends its time.  Interning gives each distinct
        parameter a small id, so cache keys are plain integer tuples.
        """
        ident = self._key_ids.get(key)
        if ident is None:
            ident = len(self._key_ids)
            self._key_ids[key] = ident
        return ident

    def cache_stats(self) -> Dict[str, int]:
        """Aggregate operation-cache statistics (monotonic counters).

        ``lookups``/``hits`` count every probe of a memoisation table
        (negation, the specialised binary applies, ``ite`` and the
        derived operators all report here); ``evictions`` counts
        generational half-evictions; ``entries`` is the current live
        entry total.
        """
        return {
            "lookups": self.cache_lookups,
            "hits": self.cache_hits,
            "evictions": self.cache_evictions,
            "entries": sum(len(cache) for cache in self._evictable),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of nodes currently stored (including terminals)."""
        return len(self._level)

    def size(self, node: int) -> int:
        """Number of nodes in the DAG rooted at ``node`` (terminals included)."""
        seen = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current > TRUE_ID:
                stack.append(self._low[current])
                stack.append(self._high[current])
        return len(seen)

    def descendants(self, node: int) -> Iterable[int]:
        """Iterate over every node reachable from ``node`` (incl. itself)."""
        seen = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            yield current
            if current > TRUE_ID:
                stack.append(self._low[current])
                stack.append(self._high[current])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BDDManager(vars={self.num_vars}, nodes={self.num_nodes})"
