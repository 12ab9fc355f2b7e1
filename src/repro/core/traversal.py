"""One symbolic fixpoint for the traversal and every closure.

:func:`fixpoint` closes a set of full states under some transitions,
fired forward or backward, optionally inside a bounding set.  The
reachability traversal, the reversibility check and the Section 5.3
frozen-input closures all run it, with one of three strategies:

``"saturation"`` (the default)
    Saturation (Ciardo, Lüttgen & Siminiceanu, TACAS 2001): every STG
    transition is local -- a firing touches only its pre/post places and
    one signal -- so the fixpoint is reached node by node, bottom-up.  A
    BDD node is closed under every transition whose topmost variable is
    at or below its level before any node above it is built
    (:func:`repro.bdd.operators.saturate`).  There are no global
    iterations, and most of the empty firings a global loop pays for
    never happen.

``"chained"`` (the paper's Figure 5)
    The ``From`` set is updated inside the loop over transitions, so states
    produced by one transition can immediately be used when firing the
    next one within the same outer iteration.  This usually reduces the
    number of outer iterations substantially.  The Table 1 harness pins
    it, and the tests use it as the oracle of the other two.

``"frontier"``
    Classical breadth-first image computation: the image of the whole
    frontier over every transition is computed before the frontier is
    replaced.  Used as an ablation baseline
    (``benchmarks/test_traversal_strategy.py``).

All three reach the same fixpoint -- the same canonical BDD -- so only
the iteration path and its cost differ.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro import obs
from repro.bdd import Function
from repro.core.image import SymbolicImage
from repro.core.stats import TraversalStats
from repro.utils.timing import check_deadline

STRATEGIES = ("saturation", "chained", "frontier")
DIRECTIONS = ("forward", "backward")


def fixpoint(image: SymbolicImage, start: Function,
             transitions: Iterable[str], direction: str, strategy: str,
             restrict_to: Optional[Function] = None,
             deadline: Optional[float] = None, *,
             stats: Optional[TraversalStats] = None) -> Function:
    """Close ``start`` under ``transitions`` fired in ``direction``.

    ``direction`` is ``"forward"`` (:meth:`SymbolicImage.fire`) or
    ``"backward"`` (:meth:`SymbolicImage.fire_backward`).

    ``"chained"`` and ``"frontier"`` iterate globally, firing the
    transitions in the given order.  Each transition's fresh states,
    ``fire(current, t, drop)``, join the iteration's new states; in
    ``"chained"`` mode they also join ``current`` before the next
    transition fires, while ``"frontier"`` fires every transition from
    the same frontier.  ``drop`` is everything already seen --
    ``start``, then every fresh set -- so the firing subtracts it in the
    same BDD pass.  ``restrict_to`` bounds the closure: ``drop`` starts
    as ``start | ~restrict_to``.  ``deadline`` (an absolute
    :func:`time.monotonic` instant) is checked once per outer iteration,
    each of which emits an ``iteration`` event and counts in
    ``stats.iterations``; ``stats.images_computed`` counts firings.

    ``"saturation"`` closes ``start`` under the transitions' events
    (:meth:`SymbolicImage.events`) without a bound and returns
    ``start | (closure & restrict_to)``.  That is the bounded closure
    whenever ``start`` lies inside a ``restrict_to`` closed under
    forward firing -- the reachable set, which contains the start of
    every closure the checks run: a path from a reachable state stays
    reachable, so the bound only limits work.  For a start outside it,
    the result is still ``start | (closure & restrict_to)``.  Here
    ``deadline`` is checked once before saturating and once per
    local-fixpoint round (every round that fired an event), each round
    counts in ``stats.iterations``, and each productive one emits an
    ``iteration`` event with its ``level``, its ``firings`` and
    ``fresh``, the number of firing results that grew the node.

    :class:`~repro.utils.timing.DeadlineExceeded` is raised past the
    deadline.  The call is one ``closure`` span -- or, when the
    reachability traversal passes its ``stats``, the ``traversal`` span,
    and ``stats`` receives the iteration/image/BDD-size counters and the
    span duration.  Without ``stats`` or an active tracer nothing reads
    the BDD sizes, so the closure sizes no BDD (each size is a walk).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown traversal strategy {strategy!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown fixpoint direction {direction!r}")
    manager = image.encoding.manager
    sized = stats is not None or obs.active() is not None
    if stats is None:
        stats = TraversalStats()
        span = obs.timed("closure", manager=manager, direction=direction,
                         strategy=strategy)
    else:
        span = obs.timed("traversal", manager=manager, direction=direction,
                         strategy=strategy)
    transition_list: List[str] = list(transitions)
    with span:
        if sized:
            stats.observe_reached(start.size())
        if strategy == "saturation":
            reached = _saturation(image, start, transition_list, direction,
                                  restrict_to, deadline, stats, sized)
        else:
            reached = _iteration(image, start, transition_list, direction,
                                 strategy, restrict_to, deadline, stats,
                                 sized)
        span.annotate(iterations=stats.iterations,
                      images=stats.images_computed,
                      peak_nodes=stats.peak_nodes,
                      peak_live_nodes=stats.peak_live_nodes)
    stats.wall_time_s = span.duration_s
    return reached


def _iteration(image: SymbolicImage, start: Function,
               transitions: List[str], direction: str, strategy: str,
               restrict_to: Optional[Function],
               deadline: Optional[float], stats: TraversalStats,
               sized: bool) -> Function:
    """The ``"chained"`` / ``"frontier"`` global loop."""
    fire = image.fire if direction == "forward" else image.fire_backward
    chained = strategy == "chained"
    manager = image.encoding.manager
    # One fetch outside the loop: the per-iteration events (frontier
    # size, live nodes -- the dynamic-reordering trigger signal) only
    # cost anything when a tracer is active.
    tracer = obs.active()
    context = f"{direction} symbolic fixpoint"
    reached = from_set = drop = start
    if restrict_to is not None:
        drop = drop | ~restrict_to
    while True:
        check_deadline(deadline, context)
        stats.iterations += 1
        new = manager.false
        current = from_set
        for transition in transitions:
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
            return reached
        reached = reached | new
        if sized:
            stats.observe_reached(reached.size())
        from_set = new


def _saturation(image: SymbolicImage, start: Function,
                transitions: List[str], direction: str,
                restrict_to: Optional[Function],
                deadline: Optional[float], stats: TraversalStats,
                sized: bool) -> Function:
    """The ``"saturation"`` closure (see :func:`fixpoint`)."""
    # Imported on the first closure, like the image kernel: importing
    # this module (the daemon does at start-up) stays cheap.
    from repro.bdd.operators import saturate

    manager = image.encoding.manager
    tracer = obs.active()
    context = f"{direction} symbolic fixpoint"

    def on_round(level: int, firings: int, fresh: int) -> None:
        check_deadline(deadline, context)
        stats.iterations += 1
        stats.images_computed += firings
        stats.observe_live_nodes(manager.num_nodes)
        if fresh and tracer is not None:
            # O(1) attributes only: sizing the fresh BDDs here would
            # cost the traced traversal as much as the saturation.
            tracer.event("iteration", direction=direction,
                         strategy="saturation", iteration=stats.iterations,
                         level=level, fresh=fresh, firings=firings,
                         live_nodes=manager.num_nodes)

    check_deadline(deadline, context)
    events = image.events(transitions, direction)
    reached = saturate(start, events, on_round)
    if restrict_to is not None and reached != start:
        # A closure that added nothing is ``start``, bounded or not.
        reached = start | (reached & restrict_to)
    stats.observe_live_nodes(manager.num_nodes)
    if sized:
        stats.observe_reached(reached.size())
    return reached


def symbolic_traversal(image: SymbolicImage,
                       transitions: Optional[Iterable[str]] = None,
                       strategy: str = "saturation",
                       seed: Optional[Function] = None,
                       seed_transitions: Optional[Iterable[str]] = None,
                       seed_closed: bool = False,
                       deadline: Optional[float] = None
                       ) -> Tuple[Function, TraversalStats]:
    """Compute the reachable full states of an STG symbolically.

    The forward :func:`fixpoint` of the STG's initial full state over
    ``transitions`` (default: all), fired by ``image`` (whose
    :attr:`~repro.core.image.SymbolicImage.encoding` is the STG's), plus
    the Table 1 statistics.

    ``seed`` holds *known-reachable* states to start from as well (the
    delta warm-start of :mod:`repro.delta.warmstart`): the fixpoint --
    and every verdict -- is exactly the cold one, only the iteration
    path changes.  With ``seed_closed=True`` the seed is already closed
    under every transition outside ``seed_transitions`` (strictly
    monotone "closed" edits), so only those fire.

    ``deadline`` is the cooperative timeout of in-process execution
    (the ``serial`` backend, and ``process`` with ``jobs=1``), which
    cannot preempt an entry: an absolute :func:`time.monotonic` instant
    checked once per iteration (under saturation, once per
    local-fixpoint round).

    Returns ``(reached, stats)``.
    """
    encoding = image.encoding
    if transitions is None:
        transitions = encoding.stg.transitions
    reached = encoding.initial_state()
    if seed is not None:
        reached = reached | seed
        if seed_closed:
            keep = set(seed_transitions or ())
            transitions = [t for t in transitions if t in keep]
    stats = TraversalStats(num_variables=len(encoding.all_variables))
    manager = encoding.manager
    base_lookups = manager.cache_lookups
    base_hits = manager.cache_hits
    reached = fixpoint(image, reached, transitions, "forward", strategy,
                       deadline=deadline, stats=stats)
    stats.num_states = encoding.count_states(reached)
    stats.cache_lookups = manager.cache_lookups - base_lookups
    stats.cache_hits = manager.cache_hits - base_hits
    return reached, stats
