"""The default variable order: the token-flow walk that seeds FORCE.

``--ordering structural`` is the depth-first token-flow walk, and the
default ``force`` order starts FORCE from it.  The walk keeps an
explicit stack, so it must give exactly the order of the recursive
walk it replaced -- kept here as the reference -- on every corpus and
family specification, and must order nets far deeper than the
interpreter's recursion limit.  Its roots and successors are taken in
name order, so the order, and with it the BDD work, does not depend on
the order a ``.g`` file lists its arcs.
"""

import random

import pytest

from repro import obs
from repro.core.encoding import ORDERING_STRATEGIES, SymbolicEncoding
from repro.core.pipeline import VerificationPipeline
from repro.stg.generators import build_example, muller_pipeline
from repro.stg.parser import parse_g
from repro.stg.writer import to_g_string
from tests.core.test_structural_liveness import SPECS, load


def recursive_structural_order(stg):
    """The token-flow walk by recursion: place, the signal of each
    output transition, then that transition's output places."""
    net = stg.net
    place_variable = SymbolicEncoding.place_variable
    signal_variable = SymbolicEncoding.signal_variable
    order, seen = [], set()

    def visit_place(place):
        variable = place_variable(place)
        if variable in seen:
            return
        seen.add(variable)
        order.append(variable)
        for transition in sorted(net.postset_of_place(place)):
            signal = signal_variable(stg.signal_of(transition))
            if signal not in seen:
                seen.add(signal)
                order.append(signal)
            for successor in sorted(net.postset_of_transition(transition)):
                visit_place(successor)

    places = sorted(net.places)
    initial = stg.initial_marking()
    try:
        for place in places:
            if initial[place] > 0:
                visit_place(place)
        for place in places:
            visit_place(place)
    finally:
        visit_place = None  # the closure reaches itself through this cell
    for signal in stg.signals:
        variable = signal_variable(signal)
        if variable not in seen:
            seen.add(variable)
            order.append(variable)
    return order


@pytest.mark.parametrize("name", SPECS)
def test_stack_walk_gives_the_recursive_order(name):
    stg, _ = load(name)
    encoding = SymbolicEncoding(stg, ordering="structural")
    assert encoding.manager.variables == recursive_structural_order(stg)


@pytest.mark.parametrize("strategy", ("force", "structural"))
def test_a_net_deeper_than_the_recursion_limit_is_ordered(strategy):
    # 1,600 places in one token-flow chain: the recursive walk raised
    # RecursionError here.
    stg = muller_pipeline(400)
    encoding = SymbolicEncoding(stg, ordering=strategy)
    assert sorted(encoding.all_variables) == sorted(
        encoding.place_variables + encoding.signal_variables)


def shuffled_graph(g_text, seed):
    """``g_text`` with the lines of its ``.graph`` section shuffled."""
    lines = g_text.splitlines()
    start = lines.index(".graph") + 1
    end = next(index for index in range(start, len(lines))
               if lines[index].startswith("."))
    body = lines[start:end]
    random.Random(seed).shuffle(body)
    return "\n".join(lines[:start] + body + lines[end:]) + "\n"


@pytest.mark.parametrize("family, scale", [
    ("muller_pipeline", 14), ("master_read", 8), ("random_parallel", 5)])
def test_order_and_work_do_not_depend_on_graph_line_order(family, scale):
    g_text = to_g_string(build_example(family, scale))
    orders, lookups = set(), set()
    for seed in range(10):
        pipeline = VerificationPipeline(parse_g(shuffled_graph(g_text, seed)))
        pipeline.reached
        orders.add(tuple(pipeline.manager.variables))
        lookups.add(pipeline.traversal_stats.cache_lookups)
    assert len(orders) == 1
    assert len(lookups) == 1, sorted(lookups)


@pytest.mark.parametrize("strategy", ORDERING_STRATEGIES)
def test_ordering_span_records_the_mean_event_span(strategy):
    stg = parse_g(to_g_string(build_example("master_read", 8)))
    sink = obs.InMemorySink()
    with obs.tracing(name=stg.name, sink=sink):
        encoding = SymbolicEncoding(stg, ordering=strategy)
    record, = [record for record in sink.records
               if record.get("name") == "ordering"]
    level = {name: index
             for index, name in enumerate(encoding.manager.variables)}
    net = stg.net
    spans = []
    for transition in stg.transitions:
        levels = [level[encoding.place_variable(place)] for place in
                  net.preset_of_transition(transition)
                  | net.postset_of_transition(transition)]
        levels.append(level[encoding.signal_variable(
            stg.signal_of(transition))])
        spans.append(max(levels) - min(levels))
    assert record["attrs"]["event_span"] == pytest.approx(
        sum(spans) / len(spans))


def test_event_span_is_computed_only_while_tracing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("event spans computed without a tracer")

    monkeypatch.setattr("repro.core.encoding.spans", refuse)
    SymbolicEncoding(muller_pipeline(4))
