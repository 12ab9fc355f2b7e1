"""Property-based cross-validation of the symbolic engine (hypothesis).

Random safe, consistent STGs are generated as collections of 4-phase
coupling cycles between randomly chosen signal pairs (the same building
block as the Muller pipeline).  For every generated specification the
symbolic engine must agree with the explicit enumeration on the state
count and on every property verdict.
"""

from hypothesis import given, settings, strategies as st

from repro.core.conflicts import check_conflict_pairs
from repro.core.csc import check_csc as symbolic_csc
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.state_checks import check_state_cubes
from repro.core.traversal import symbolic_traversal
from repro.sg import build_state_graph
from repro.sg.csc import check_csc as explicit_csc
from repro.sg.persistency import check_signal_persistency as explicit_persistency
from repro.stg import STG, SignalKind


@st.composite
def coupled_stgs(draw):
    """Random interconnections of 4-phase coupling cycles.

    Signals ``s0 .. s<n-1>``; signal 0 is an input, the rest are outputs.
    Each coupling between signals x and y adds the cycle
    ``x+ -> y+ -> x- -> y- -> x+`` with the token on the last arc, so the
    all-zero initial state is consistent by construction.
    """
    num_signals = draw(st.integers(min_value=2, max_value=5))
    names = [f"s{i}" for i in range(num_signals)]
    stg = STG("random_coupled")
    for index, name in enumerate(names):
        kind = SignalKind.INPUT if index == 0 else SignalKind.OUTPUT
        stg.add_signal(name, kind, initial_value=False)
    # Always couple consecutive signals so every signal has transitions,
    # then add a few random extra couplings.
    couplings = {(i, i + 1) for i in range(num_signals - 1)}
    extra = draw(st.lists(
        st.tuples(st.integers(0, num_signals - 1),
                  st.integers(0, num_signals - 1)),
        max_size=3))
    for first, second in extra:
        if first != second:
            couplings.add((min(first, second), max(first, second)))
    for first, second in sorted(couplings):
        x, y = names[first], names[second]
        stg.connect(f"{x}+", f"{y}+")
        stg.connect(f"{y}+", f"{x}-")
        stg.connect(f"{x}-", f"{y}-")
        stg.connect(f"{y}-", f"{x}+", tokens=1)
    return stg


class TestRandomisedCrossValidation:
    @settings(max_examples=20, deadline=None)
    @given(stg=coupled_stgs())
    def test_state_counts_agree(self, stg):
        explicit = build_state_graph(stg).graph
        encoding = SymbolicEncoding(stg)
        _, stats = symbolic_traversal(encoding)
        assert stats.num_states == explicit.num_states

    @settings(max_examples=15, deadline=None)
    @given(stg=coupled_stgs())
    def test_consistency_and_persistency_hold(self, stg):
        # Coupling cycles are marked graphs: always consistent + persistent.
        explicit = build_state_graph(stg)
        assert explicit.consistent
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        reached, _ = symbolic_traversal(encoding, image=image)
        assert check_state_cubes(encoding, reached).consistency.consistent
        assert check_conflict_pairs(
            encoding, reached, image).signal_persistency.persistent
        assert explicit_persistency(explicit.graph, stg).persistent

    @settings(max_examples=15, deadline=None)
    @given(stg=coupled_stgs())
    def test_csc_verdicts_agree(self, stg):
        explicit = build_state_graph(stg).graph
        encoding = SymbolicEncoding(stg)
        image = SymbolicImage(encoding)
        reached, stats = symbolic_traversal(encoding, image=image)
        assert symbolic_csc(encoding, reached, stats.num_states,
                            image.charfun).csc == \
            explicit_csc(explicit, stg).csc

    @settings(max_examples=15, deadline=None)
    @given(stg=coupled_stgs(),
           ordering=st.sampled_from(["force", "structural", "declaration"]))
    def test_ordering_does_not_change_state_count(self, stg, ordering):
        explicit = build_state_graph(stg).graph
        encoding = SymbolicEncoding(stg, ordering=ordering)
        _, stats = symbolic_traversal(encoding)
        assert stats.num_states == explicit.num_states
