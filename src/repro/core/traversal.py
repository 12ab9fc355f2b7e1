"""One symbolic fixpoint (Figure 5) for the traversal and every closure.

:func:`fixpoint` closes a set of full states under some transitions,
fired forward or backward, optionally inside a bounding set.  The
reachability traversal, the reversibility check and the Section 5.3
frozen-input closures all run it, with one of two strategies:

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

Both reach the same fixpoint; only the iteration path and its cost differ.
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
DIRECTIONS = ("forward", "backward")


def fixpoint(image: SymbolicImage, start: Function,
             transitions: Iterable[str], direction: str, strategy: str,
             restrict_to: Optional[Function] = None,
             deadline: Optional[float] = None, *,
             stats: Optional[TraversalStats] = None,
             observer: Optional[Callable[[Function], None]] = None
             ) -> Function:
    """Close ``start`` under ``transitions`` fired in ``direction``.

    ``direction`` is ``"forward"`` (:meth:`SymbolicImage.fire`) or
    ``"backward"`` (:meth:`SymbolicImage.fire_backward`); transitions
    fire in the given order.  Each transition's fresh states,
    ``fire(current, t, drop)``, join the iteration's new states; in
    ``"chained"`` mode they also join ``current`` before the next
    transition fires, while ``"frontier"`` fires every transition from
    the same frontier.  ``drop`` is everything already seen --
    ``start``, then every fresh set -- so the firing subtracts it in
    the same BDD pass.  ``restrict_to`` (typically the reachable set)
    bounds the closure: ``drop`` starts as ``start | ~restrict_to``.
    ``deadline`` is an absolute :func:`time.monotonic` instant checked
    once per outer iteration
    (:class:`~repro.utils.timing.DeadlineExceeded` past it).

    The call is one ``closure`` span -- or, when the reachability
    traversal passes its ``stats``, the ``traversal`` span, and
    ``stats`` receives the iteration/image/BDD-size counters and the
    span duration.  Each outer iteration emits an ``iteration`` event;
    ``observer`` sees the fresh states of every productive iteration.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown traversal strategy {strategy!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown fixpoint direction {direction!r}")
    fire = image.fire if direction == "forward" else image.fire_backward
    chained = strategy == "chained"
    transition_list: List[str] = list(transitions)
    manager = image.encoding.manager
    if stats is None:
        stats = TraversalStats()
        span = obs.timed("closure", manager=manager, direction=direction,
                         strategy=strategy)
    else:
        span = obs.timed("traversal", manager=manager, direction=direction,
                         strategy=strategy)
    # One fetch outside the loop: the per-iteration events (frontier
    # size, live nodes -- the dynamic-reordering trigger signal) only
    # cost anything when a tracer is active.
    tracer = obs.active()
    context = f"{direction} symbolic fixpoint"
    reached = from_set = drop = start
    if restrict_to is not None:
        drop = drop | ~restrict_to
    with span:
        stats.observe_reached(reached.size())
        while True:
            check_deadline(deadline, context)
            stats.iterations += 1
            new = manager.false
            current = from_set
            for transition in transition_list:
                fresh = fire(current, transition, drop)
                stats.images_computed += 1
                if not fresh.is_false():
                    drop = drop | fresh
                    new = new | fresh
                    if chained:
                        current = current | fresh
            stats.observe_live_nodes(manager.num_nodes)
            if tracer is not None:
                tracer.event("iteration", direction=direction,
                             strategy=strategy, iteration=stats.iterations,
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
        span.annotate(iterations=stats.iterations,
                      images=stats.images_computed,
                      peak_nodes=stats.peak_nodes,
                      peak_live_nodes=stats.peak_live_nodes)
    stats.wall_time_s = span.duration_s
    return reached


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

    The forward :func:`fixpoint` of ``initial`` (default: the STG's
    initial full state) over ``transitions`` (default: all), plus the
    Table 1 statistics.  ``image`` may be a pre-built
    :class:`~repro.core.image.SymbolicImage` (shared caches);
    ``observer`` is called with the starting set and then with the fresh
    states of every iteration.

    ``seed`` holds *known-reachable* states to start from as well (the
    delta warm-start of :mod:`repro.delta.warmstart`): the fixpoint --
    and every verdict -- is exactly the cold one, only the iteration
    path changes.  With ``seed_closed=True`` the seed is already closed
    under every transition outside ``seed_transitions`` (strictly
    monotone "closed" edits), so only those fire.

    ``deadline`` is the cooperative timeout of the backends that cannot
    preempt an entry (``serial``/``thread``/``asyncio``): an absolute
    :func:`time.monotonic` instant checked once per iteration.

    Returns ``(reached, stats)``.
    """
    image = image or SymbolicImage(encoding)
    if transitions is None:
        transitions = encoding.stg.transitions
    reached = initial if initial is not None else encoding.initial_state()
    if seed is not None:
        reached = reached | seed
        if seed_closed:
            keep = set(seed_transitions or ())
            transitions = [t for t in transitions if t in keep]
    stats = TraversalStats(num_variables=len(encoding.all_variables))
    manager = encoding.manager
    base_lookups = manager.cache_lookups
    base_hits = manager.cache_hits
    if observer is not None:
        observer(reached)
    reached = fixpoint(image, reached, transitions, "forward", strategy,
                       deadline=deadline, stats=stats, observer=observer)
    stats.num_states = encoding.count_states(reached)
    stats.cache_lookups = manager.cache_lookups - base_lookups
    stats.cache_hits = manager.cache_hits - base_hits
    return reached, stats
