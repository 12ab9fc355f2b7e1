"""Ablation C: traversal chaining strategy (Figure 5 vs plain BFS).

The paper's traversal (Figure 5) updates the ``From`` set inside the loop
over transitions ("chaining"), so states found while firing one transition
are immediately available to the next one.  The ablation compares it with
the plain frontier-at-a-time breadth-first image computation, in both
directions of the one fixpoint routine: the forward reachability
traversal, and the backward closure behind the reversibility check.

Run with::

    pytest benchmarks/test_traversal_strategy.py --benchmark-only
"""

import pytest

from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import STRATEGIES, fixpoint, symbolic_traversal
from repro.stg.generators import master_read, muller_pipeline, mutex_element

CASES = [
    ("muller_pipeline_12", lambda: muller_pipeline(12)),
    ("master_read_6", lambda: master_read(6)),
    ("mutex_8", lambda: mutex_element(8)),
]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name, factory", CASES,
                         ids=[case[0] for case in CASES])
def test_traversal_strategy(benchmark, name, factory, strategy):
    stg = factory()

    def run():
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        return symbolic_traversal(encoding, image=image, strategy=strategy)

    _, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["iterations"] = stats.iterations
    benchmark.extra_info["images"] = stats.images_computed
    benchmark.extra_info["states"] = stats.num_states
    assert stats.num_states > 0


def test_chaining_reduces_iterations():
    """Chained traversal needs no more outer iterations than plain BFS."""
    for _, factory in CASES:
        stg = factory()
        encoding = SymbolicEncoding(stg)
        _, chained = symbolic_traversal(encoding, strategy="chained")
        encoding = SymbolicEncoding(stg)
        _, frontier = symbolic_traversal(encoding, strategy="frontier")
        assert chained.num_states == frontier.num_states
        assert chained.iterations <= frontier.iterations


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_reversibility_closure_strategy(benchmark, strategy):
    """Backward row: the reversibility closure of ``muller_pipeline(12)``
    (the initial state un-fired over every transition inside the
    reachable set), timed on a fresh manager each round so no round
    reuses another's operation caches."""
    stg = muller_pipeline(12)
    last = {}

    def prepare():
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        reached, _ = symbolic_traversal(encoding, image=image)
        last["reached"] = reached
        return (image, encoding.initial_state(), stg.transitions,
                "backward", strategy), {"restrict_to": reached}

    closure = benchmark.pedantic(fixpoint, setup=prepare, rounds=3,
                                 iterations=1, warmup_rounds=0)
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["direction"] = "backward"
    assert closure == last["reached"]  # the pipeline is reversible
