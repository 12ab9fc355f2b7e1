"""Tests of the seeded random benchmark families.

The contract: identical parameters always produce byte-identical ``.g``
text, and the structural invariants the corpus registry pins (consistency,
persistency, deadlock freedom, the analytic state count, interface
minimums) hold for every seed.
"""

import pytest

from repro.api import ALL, verify
from repro.stg import generators
from repro.stg.writer import to_g_string

RING_CASES = [(3, 1), (4, 2), (6, 7), (8, 11)]
PARALLEL_CASES = [(2, 1), (3, 2), (4, 5)]


class TestDeterminism:
    @pytest.mark.parametrize("signals,seed", RING_CASES)
    def test_ring_text_is_reproducible(self, signals, seed):
        first = to_g_string(generators.random_ring(signals, seed))
        second = to_g_string(generators.random_ring(signals, seed))
        assert first == second

    @pytest.mark.parametrize("rings,seed", PARALLEL_CASES)
    def test_parallel_text_is_reproducible(self, rings, seed):
        first = to_g_string(generators.random_parallel(rings, seed))
        second = to_g_string(generators.random_parallel(rings, seed))
        assert first == second

    def test_different_seeds_differ(self):
        texts = {to_g_string(generators.random_ring(5, seed))
                 for seed in range(1, 9)}
        assert len(texts) == 8

    def test_family_adapters_cover_distinct_instances(self):
        names = {generators.random_ring_family(scale).name
                 for scale in range(1, 25)}
        assert len(names) == 24


class TestStructuralInvariants:
    @pytest.mark.parametrize("signals,seed", RING_CASES)
    def test_ring_pinned_verdicts(self, signals, seed):
        stg = generators.random_ring(signals, seed)
        report = verify(stg, checks=ALL)
        assert report.consistent
        assert report.output_persistent
        assert report.deadlock_free
        assert report.safe
        assert report.num_states == 2 * signals

    @pytest.mark.parametrize("rings,seed", PARALLEL_CASES)
    def test_parallel_pinned_verdicts(self, rings, seed):
        stg = generators.random_parallel(rings, seed)
        report = verify(stg, checks=ALL)
        assert report.consistent
        assert report.output_persistent
        assert report.deadlock_free
        assert report.num_states == \
            generators.random_parallel_state_count(rings, seed)

    @pytest.mark.parametrize("signals,seed", RING_CASES)
    def test_ring_interface_minimums(self, signals, seed):
        stg = generators.random_ring(signals, seed)
        assert len(stg.inputs) >= 1
        assert len(stg.outputs) >= 1
        assert len(stg.inputs) + len(stg.outputs) == signals

    def test_state_count_helper_matches_sizes(self):
        sizes = generators.random_parallel_ring_sizes(3, 4)
        expected = 1
        for size in sizes:
            expected *= 2 * size
        assert generators.random_parallel_state_count(3, 4) == expected


class TestValidation:
    def test_ring_needs_two_signals(self):
        with pytest.raises(ValueError):
            generators.random_ring(1, 1)

    def test_parallel_needs_one_ring(self):
        with pytest.raises(ValueError):
            generators.random_parallel(0, 1)

    def test_families_registered(self):
        assert "random_ring" in generators.SCALABLE_FAMILIES
        assert "random_parallel" in generators.SCALABLE_FAMILIES
        stg = generators.build_example("random_ring", 5)
        assert stg.name.startswith("random_ring_")
