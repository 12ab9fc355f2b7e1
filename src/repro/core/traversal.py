"""Symbolic reachability traversal (Figure 5) and frozen-signal variants.

Two chaining strategies are provided:

``"chained"`` (the paper's Figure 5)
    The ``From`` set is updated inside the loop over transitions, so states
    produced by one transition can immediately be used when firing the
    next one within the same outer iteration.  This usually reduces the
    number of outer iterations substantially.

``"frontier"``
    Classical breadth-first image computation: the image of the whole
    frontier over every transition is computed before the frontier is
    replaced.  Used as an ablation baseline
    (``benchmarks/test_traversal_strategy.py``).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro import obs
from repro.bdd import Function
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.stats import TraversalStats
from repro.utils.timing import check_deadline

STRATEGIES = ("chained", "frontier")


def symbolic_traversal(encoding: SymbolicEncoding,
                       image: Optional[SymbolicImage] = None,
                       initial: Optional[Function] = None,
                       transitions: Optional[Iterable[str]] = None,
                       strategy: str = "chained",
                       observer: Optional[Callable[[Function], None]] = None,
                       seed: Optional[Function] = None,
                       seed_transitions: Optional[Iterable[str]] = None,
                       seed_closed: bool = False,
                       deadline: Optional[float] = None
                       ) -> Tuple[Function, TraversalStats]:
    """Compute the reachable full states of an STG symbolically.

    Parameters
    ----------
    encoding:
        Variable encoding of the STG.
    image:
        Optionally a pre-built :class:`~repro.core.image.SymbolicImage`
        (reused by the checker to share characteristic-function caches).
    initial:
        Characteristic function of the starting set (defaults to the STG's
        initial full state).
    transitions:
        Restrict firing to this transition subset (used by the frozen
        traversals of the CSC-reducibility check).
    strategy:
        ``"chained"`` (Figure 5) or ``"frontier"``.
    observer:
        Optional callback invoked with every new ``Reached`` set (used by
        the consistency check to inspect states as they appear).
    seed:
        Characteristic function of *known-reachable* states to start the
        fixpoint from instead of the initial state alone (the delta
        warm-start of :mod:`repro.delta.warmstart`).  The caller
        guarantees every seed state is genuinely reachable, so the
        fixpoint -- and with it every verdict -- is exactly the cold
        one; only the iteration path (and its statistics) changes.
    seed_transitions:
        With ``seed_closed=True``, the only transitions that still need
        firing: the seed is already closed under all others (strictly
        monotone "closed" edits, where the additions touch no
        pre-existing place or signal).
    seed_closed:
        Restrict the sweep to ``seed_transitions`` (see above).
    deadline:
        Optional absolute :func:`time.monotonic` instant checked
        cooperatively once per fixpoint iteration;
        :class:`~repro.utils.timing.DeadlineExceeded` is raised past
        it.  This is the in-process timeout mechanism of the backends
        that cannot preempt an entry (``serial``/``thread``/
        ``asyncio``); the ``process`` backend additionally enforces
        budgets preemptively.

    Returns
    -------
    (reached, stats):
        The characteristic function of the reachable set and the traversal
        statistics.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown traversal strategy {strategy!r}")
    image = image or SymbolicImage(encoding)
    transition_list: List[str] = list(
        transitions if transitions is not None else encoding.stg.transitions)
    reached = initial if initial is not None else encoding.initial_state()
    if seed is not None:
        reached = reached | seed
        if seed_closed:
            keep = set(seed_transitions or ())
            transition_list = [t for t in transition_list if t in keep]
    stats = TraversalStats(num_variables=len(encoding.all_variables))
    manager = encoding.manager
    base_lookups = manager.cache_lookups
    base_hits = manager.cache_hits
    # One fetch outside the loop: the per-iteration events (frontier
    # size, live nodes -- the dynamic-reordering trigger signal) only
    # cost anything when a tracer is active.
    tracer = obs.active()
    with obs.timed("traversal", manager=manager, strategy=strategy,
                   seeded=seed is not None) as span:
        stats.observe_reached(reached.size())
        if observer is not None:
            observer(reached)

        from_set = reached
        while True:
            check_deadline(deadline, "symbolic traversal")
            stats.iterations += 1
            if strategy == "chained":
                new = _chained_step(image, transition_list, reached,
                                    from_set, stats)
            else:
                new = _frontier_step(image, transition_list, from_set, stats)
                new = new - reached
            stats.observe_live_nodes(manager.num_nodes)
            if tracer is not None:
                tracer.event("iteration", iteration=stats.iterations,
                             frontier_nodes=new.size(),
                             reached_nodes=stats.final_nodes,
                             live_nodes=manager.num_nodes)
            if new.is_false():
                break
            reached = reached | new
            stats.observe_reached(reached.size())
            if observer is not None:
                observer(new)
            from_set = new
        stats.num_states = encoding.count_states(reached)
        stats.final_nodes = reached.size()
        stats.cache_lookups = manager.cache_lookups - base_lookups
        stats.cache_hits = manager.cache_hits - base_hits
        span.annotate(iterations=stats.iterations,
                      images=stats.images_computed,
                      peak_nodes=stats.peak_nodes,
                      peak_live_nodes=stats.peak_live_nodes,
                      states=stats.num_states)
    stats.wall_time_s = span.duration_s
    return reached, stats


def _chained_step(image: SymbolicImage, transitions: List[str],
                  reached: Function, from_set: Function,
                  stats: TraversalStats) -> Function:
    """One outer iteration of Figure 5 (From is chained across transitions)."""
    accumulated_new = image.encoding.manager.false
    current_from = from_set
    for transition in transitions:
        to_set = image.fire(current_from, transition)
        stats.images_computed += 1
        fresh = to_set - (reached | accumulated_new)
        if fresh.is_false():
            continue
        accumulated_new = accumulated_new | fresh
        current_from = current_from | fresh
    return accumulated_new


def _frontier_step(image: SymbolicImage, transitions: List[str],
                   frontier: Function, stats: TraversalStats) -> Function:
    """Plain breadth-first step: image of the frontier over all transitions."""
    result = image.encoding.manager.false
    for transition in transitions:
        result = result | image.fire(frontier, transition)
        stats.images_computed += 1
    return result


def frozen_forward_closure(image: SymbolicImage, start: Function,
                           transitions: Iterable[str],
                           restrict_to: Optional[Function] = None) -> Function:
    """Forward closure of ``start`` firing only ``transitions``.

    ``restrict_to`` (typically the reachable set) bounds the closure so
    that backward-then-forward explorations stay inside reachable states.
    """
    reached = start
    frontier = start
    transition_list = list(transitions)
    while True:
        new = image.encoding.manager.false
        for transition in transition_list:
            new = new | image.fire(frontier, transition)
        if restrict_to is not None:
            new = new & restrict_to
        new = new - reached
        if new.is_false():
            return reached
        reached = reached | new
        frontier = new


def frozen_backward_closure(image: SymbolicImage, start: Function,
                            transitions: Iterable[str],
                            restrict_to: Optional[Function] = None) -> Function:
    """Backward closure of ``start`` un-firing only ``transitions``."""
    reached = start
    frontier = start
    transition_list = list(transitions)
    while True:
        new = image.encoding.manager.false
        for transition in transition_list:
            new = new | image.fire_backward(frontier, transition)
        if restrict_to is not None:
            new = new & restrict_to
        new = new - reached
        if new.is_false():
            return reached
        reached = reached | new
        frontier = new
