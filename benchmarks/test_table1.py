"""Table 1 reproduction (pytest-benchmark targets).

Each benchmark runs the complete symbolic implementability check
(traversal + consistency, persistency + fake conflicts, CSC +
reducibility) on one row of the benchmark suite and records the Table 1
columns (state count, peak/final BDD size, per-phase seconds) in
``extra_info`` so they appear in the saved benchmark JSON.

Run with::

    pytest benchmarks/test_table1.py --benchmark-only
"""

import pytest

from benchmarks.table1_common import (
    BENCHMARK_ROWS,
    build_instance,
    expected_verdicts,
    report_to_row,
)
from repro.api import EngineConfig, verify

CASES = [(family, scale) for family, scales in BENCHMARK_ROWS
         for scale in scales]


@pytest.mark.parametrize("family, scale", CASES,
                         ids=[f"{family}_{scale}" for family, scale in CASES])
def test_table1_row(benchmark, family, scale):
    """Benchmark the full symbolic check of one Table 1 row."""
    stg, arbitration = build_instance(family, scale)
    config = EngineConfig(arbitration_places=tuple(arbitration))

    def run():
        return verify(stg, config)

    report = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    row = report_to_row(family, scale, report)
    benchmark.extra_info.update(row)

    # The check must actually succeed -- a benchmark of a failing
    # verification would be meaningless.
    verdicts = expected_verdicts(family)
    assert row["consistent"] is verdicts["consistent"]
    assert row["persistent"] is verdicts["persistent"]
    assert row["csc_holds"] is verdicts["csc_holds"]
    assert row["states"] > 0
    assert row["bdd_peak"] >= row["bdd_final"]


@pytest.mark.parametrize("family, scale", [("muller_pipeline", 16),
                                           ("parallel_handshakes", 10)],
                         ids=["pipeline_16", "parallel_10"])
def test_traversal_only_large(benchmark, family, scale):
    """Benchmark only the traversal phase on the largest instances.

    Shows that the reachable set of millions of states is computed in
    seconds -- the headline claim of the paper's evaluation.
    """
    from repro.core.encoding import SymbolicEncoding
    from repro.core.image import SymbolicImage
    from repro.core.traversal import symbolic_traversal

    stg, _ = build_instance(family, scale)

    def run():
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        return symbolic_traversal(image)

    _, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(stats.as_dict())
    assert stats.num_states >= 2 ** scale
