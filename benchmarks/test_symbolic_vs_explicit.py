"""Ablation A: symbolic traversal vs explicit enumeration.

The paper's motivation: explicit state enumeration explodes with the
degree of concurrency while the symbolic representation does not.  This
benchmark runs both engines on the same Muller-pipeline and
parallel-handshake instances (sized so the explicit engine is still
feasible) and records the state counts, so the growth trend and the
crossover are visible in the benchmark report.

Run with::

    pytest benchmarks/test_symbolic_vs_explicit.py --benchmark-only
"""

import pytest

from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import symbolic_traversal
from repro.sg import build_state_graph
from repro.stg.generators import muller_pipeline, parallel_handshakes

PIPELINE_SIZES = (8, 10, 12)
PARALLEL_SIZES = (4, 6)


@pytest.mark.parametrize("stages", PIPELINE_SIZES,
                         ids=[f"pipeline_{n}" for n in PIPELINE_SIZES])
def test_explicit_enumeration_pipeline(benchmark, stages):
    stg = muller_pipeline(stages)

    def run():
        return build_state_graph(stg).graph

    graph = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["states"] = graph.num_states
    benchmark.extra_info["engine"] = "explicit"
    assert graph.num_states == 2 ** (stages + 1)


@pytest.mark.parametrize("stages", PIPELINE_SIZES,
                         ids=[f"pipeline_{n}" for n in PIPELINE_SIZES])
def test_symbolic_traversal_pipeline(benchmark, stages):
    stg = muller_pipeline(stages)

    def run():
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        return symbolic_traversal(image)

    _, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["states"] = stats.num_states
    benchmark.extra_info["bdd_final"] = stats.final_nodes
    benchmark.extra_info["engine"] = "symbolic"
    assert stats.num_states == 2 ** (stages + 1)


@pytest.mark.parametrize("channels", PARALLEL_SIZES,
                         ids=[f"parallel_{n}" for n in PARALLEL_SIZES])
def test_explicit_enumeration_parallel(benchmark, channels):
    stg = parallel_handshakes(channels)

    def run():
        return build_state_graph(stg).graph

    graph = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["states"] = graph.num_states
    benchmark.extra_info["engine"] = "explicit"
    assert graph.num_states == 4 ** channels


@pytest.mark.parametrize("channels", PARALLEL_SIZES,
                         ids=[f"parallel_{n}" for n in PARALLEL_SIZES])
def test_symbolic_traversal_parallel(benchmark, channels):
    stg = parallel_handshakes(channels)

    def run():
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        return symbolic_traversal(image)

    _, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["states"] = stats.num_states
    benchmark.extra_info["bdd_final"] = stats.final_nodes
    benchmark.extra_info["engine"] = "symbolic"
    assert stats.num_states == 4 ** channels
