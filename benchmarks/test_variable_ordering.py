"""Ablation B: BDD variable-ordering heuristics.

Section 6 of the paper notes that the scalable examples blow up without
"appropriate heuristics for variable ordering".  This benchmark runs the
traversal of the same instances under the four static ordering strategies
of :class:`repro.core.encoding.SymbolicEncoding` and records the peak BDD
size, making the sensitivity (and the advantage of the structural /FORCE
orders over the naive ones) measurable.

Run with::

    pytest benchmarks/test_variable_ordering.py --benchmark-only
"""

import pytest

from repro.core.encoding import ORDERING_STRATEGIES, SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import symbolic_traversal
from repro.stg.generators import master_read, muller_pipeline

CASES = [
    ("muller_pipeline", muller_pipeline, 12),
    ("master_read", master_read, 6),
]


@pytest.mark.parametrize("ordering", ORDERING_STRATEGIES)
@pytest.mark.parametrize("name, factory, scale", CASES,
                         ids=[case[0] for case in CASES])
def test_ordering_strategy(benchmark, name, factory, scale, ordering):
    stg = factory(scale)

    def run():
        encoding = SymbolicEncoding(stg, ordering=ordering)
        image = SymbolicImage(encoding)
        return symbolic_traversal(image)

    _, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["ordering"] = ordering
    benchmark.extra_info["bdd_peak"] = stats.peak_nodes
    benchmark.extra_info["bdd_final"] = stats.final_nodes
    benchmark.extra_info["states"] = stats.num_states
    # Whatever the order, the computed state space must be identical.
    expected = 2 ** (scale + 1) if name == "muller_pipeline" else None
    if expected is not None:
        assert stats.num_states == expected


def test_structured_orders_beat_naive_order_on_pipeline():
    """The structural orders must not be worse than the naive baseline."""
    stg = muller_pipeline(12)
    peaks = {}
    for ordering in ORDERING_STRATEGIES:
        encoding = SymbolicEncoding(stg, ordering=ordering)
        image = SymbolicImage(encoding)
        _, stats = symbolic_traversal(image)
        peaks[ordering] = stats.peak_nodes
    assert peaks["force"] <= peaks["declaration"]
    assert peaks["structural"] <= peaks["declaration"]
