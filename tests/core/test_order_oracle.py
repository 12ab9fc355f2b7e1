"""The step-table variable order against the name-based reference.

:class:`~repro.core.encoding.SymbolicEncoding` runs FORCE and the
token-flow walk on integer ids numbered in name order.  The reference
(:mod:`tests.core.order_oracle`) is the same heuristic on names.  The
two must give the identical order on every corpus entry and on the
family instances, both as the generators build them and as their
``.g`` round trips parse, and FORCE must agree on random hypergraphs
whose variables tie.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import corpus
from repro.bdd.ordering import force_order
from repro.core.encoding import SymbolicEncoding
from repro.stg.parser import parse_g
from repro.stg.writer import to_g_string
from tests.core.order_oracle import (
    force_order_of,
    force_ordering,
    structural_order,
)

FAMILIES = (("muller_pipeline", 2, 30), ("master_read", 2, 12),
            ("parallel_handshakes", 1, 16), ("mutex", 2, 8),
            ("random_ring", 1, 60), ("random_parallel", 1, 60))


def assert_orders_match(stg):
    force = SymbolicEncoding(stg).manager.variables
    assert force == force_order_of(stg)
    structural = SymbolicEncoding(stg, ordering="structural")
    assert structural.manager.variables == structural_order(stg)


@pytest.mark.parametrize("name", corpus.names())
def test_every_corpus_entry_gets_the_reference_order(name):
    assert_orders_match(parse_g(corpus.entry(name).g_text, name=name))


@pytest.mark.parametrize("family, low, high", FAMILIES,
                         ids=[family for family, _, _ in FAMILIES])
def test_every_family_instance_gets_the_reference_order(family, low,
                                                        high):
    for scale in range(low, high + 1):
        stg, _ = corpus.family(family).instantiate(scale)
        assert_orders_match(stg)
        assert_orders_match(parse_g(to_g_string(stg)))


def by_name(variables, groups):
    """``force_order`` on names, numbered in name order."""
    names = sorted(variables)
    ids = {name: index for index, name in enumerate(names)}
    order = force_order([ids[name] for name in variables],
                        [[ids[name] for name in group] for group in groups])
    return [names[index] for index in order]


@st.composite
def hypergraphs(draw):
    """Distinct names in a random seed order, and hyperedges over them.
    Some variables get a twin that sits in exactly their hyperedges, so
    the two always reach the same tentative position and the tie is
    broken by name."""
    names = draw(st.lists(st.text("abpsz:<>+-", min_size=1, max_size=4),
                          min_size=2, max_size=14, unique=True))
    variables = draw(st.permutations(names))
    groups = draw(st.lists(
        st.lists(st.sampled_from(variables), min_size=1, max_size=5),
        max_size=12))
    twins = draw(st.lists(st.tuples(st.sampled_from(variables),
                                    st.sampled_from(variables)),
                          max_size=3))
    for original, twin in twins:
        if original != twin:
            groups = [group + [twin] if original in group
                      else [name for name in group if name != twin]
                      for group in groups]
    return variables, groups


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
def test_force_order_is_the_name_based_order_on_random_hypergraphs(
        hypergraph):
    variables, groups = hypergraph
    assert by_name(variables, groups) == force_ordering(variables, groups)


def test_twins_tie_and_break_by_name():
    # "b" and "a" sit in the same hyperedges, so they always share a
    # tentative position: the lower name goes first.
    variables = ["x", "b", "y", "a"]
    groups = [["x", "b", "a"], ["b", "a", "y"]]
    order = by_name(variables, groups)
    assert order == force_ordering(variables, groups)
    assert order.index("a") + 1 == order.index("b")
