"""Benchmark STG generators.

Two groups of specifications are produced here:

* **Paper figures** -- the two-user mutual-exclusion element of Figure 1,
  the non-persistency / fake-conflict pair D1/D2 of Figure 3 and the small
  property-violation examples discussed in Section 3.  These are encoded
  exactly as drawn and are used by the unit tests and the examples.

* **Scalable families** -- parameterised specifications whose state space
  grows exponentially with the scale parameter, mirroring the families the
  paper's Table 1 is built on (Muller pipelines and master-read style
  marked graphs, mutual-exclusion arrays with arbitration).  The original
  benchmark files are not redistributable, so these generators rebuild the
  same structural families programmatically (see DESIGN.md, Section 2).

Every generated STG declares all initial signal values, so the full state
graph is well defined without value inference.
"""

from __future__ import annotations

import random
from typing import List

from repro.stg.signals import SignalKind
from repro.stg.stg import STG
from repro.utils.registry import UnknownNameError


# ----------------------------------------------------------------------
# Tiny didactic specifications
# ----------------------------------------------------------------------
def handshake() -> STG:
    """A single 4-phase handshake: input ``r`` (request), output ``a`` (ack).

    The smallest useful STG: 4 transitions, 4 states, satisfies every
    implementability property.
    """
    stg = STG("handshake")
    stg.add_signal("r", SignalKind.INPUT, initial_value=False)
    stg.add_signal("a", SignalKind.OUTPUT, initial_value=False)
    stg.connect("r+", "a+")
    stg.connect("a+", "r-")
    stg.connect("r-", "a-")
    stg.connect("a-", "r+", tokens=1)
    return stg


def mutex_element(users: int = 2) -> STG:
    """The mutual exclusion element of the paper's Figure 1 (generalised).

    ``users=2`` reproduces the figure exactly: 9 places, 8 transitions,
    inputs ``r1, r2`` (requests), outputs ``g1, g2`` (grants) and one
    shared place guaranteeing mutual exclusion of the grants.  The grant
    transitions are in direct conflict on the shared place, which is the
    *arbitration point* discussed in the footnote of Definition 3.2: the
    conflict between the output signals is accepted when arbitration is
    allowed, and reported as a persistency violation otherwise.

    Parameters
    ----------
    users:
        Number of competing request/grant pairs (>= 1).
    """
    if users < 1:
        raise ValueError("users must be >= 1")
    stg = STG(f"mutex{users}" if users != 2 else "mutex_element")
    stg.add_place("p_me", tokens=1)
    for index in range(1, users + 1):
        request, grant = f"r{index}", f"g{index}"
        stg.add_signal(request, SignalKind.INPUT, initial_value=False)
        stg.add_signal(grant, SignalKind.OUTPUT, initial_value=False)
        stg.connect(f"{request}+", f"{grant}+")
        stg.connect(f"{grant}+", f"{request}-")
        stg.connect(f"{request}-", f"{grant}-")
        stg.connect(f"{grant}-", f"{request}+", tokens=1)
        # The shared mutual-exclusion token.
        stg.add_arc("p_me", f"{grant}+")
        stg.add_arc(f"{grant}-", "p_me")
    return stg


def mutex_arbitration_places(stg: STG) -> List[str]:
    """The arbitration places of a :func:`mutex_element` instance."""
    return [place for place in stg.places if place.startswith("p_me")]


# ----------------------------------------------------------------------
# Scalable, fully implementable families (Table 1 rows)
# ----------------------------------------------------------------------
def muller_pipeline(stages: int) -> STG:
    """A Muller C-element pipeline with ``stages`` controlled stages.

    Signals: ``c0`` (input, the data wave injected by the environment) and
    ``c1 ... c<stages>`` (outputs, one per pipeline stage).  Adjacent
    signals are coupled by the classical 4-phase cycle

        ``c_i+ -> c_{i+1}+ -> c_i- -> c_{i+1}- -> c_i+``

    with the token initially on the last arc, so all signals start at 0 and
    only ``c0+`` is enabled.  The net is a safe marked graph; the number of
    reachable states grows exponentially with ``stages``.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    stg = STG(f"muller_pipeline_{stages}")
    stg.add_signal("c0", SignalKind.INPUT, initial_value=False)
    for index in range(1, stages + 1):
        stg.add_signal(f"c{index}", SignalKind.OUTPUT, initial_value=False)
    for index in range(stages):
        left, right = f"c{index}", f"c{index + 1}"
        stg.connect(f"{left}+", f"{right}+")
        stg.connect(f"{right}+", f"{left}-")
        stg.connect(f"{left}-", f"{right}-")
        stg.connect(f"{right}-", f"{left}+", tokens=1)
    return stg


def master_read(channels: int) -> STG:
    """A master *read* interface fetching from ``channels`` concurrent slaves.

    The master receives ``go`` (input), issues all the ``req_i`` (outputs)
    concurrently, waits for every ``ack_i`` (inputs), raises ``done``
    (output) and then unwinds the handshakes in the return-to-zero phase.
    The net is a safe marked graph (fork/join through transitions) whose
    state space grows exponentially with the number of channels --
    the same structural family as the classical ``master-read`` benchmark.
    """
    if channels < 1:
        raise ValueError("channels must be >= 1")
    stg = STG(f"master_read_{channels}")
    stg.add_signal("go", SignalKind.INPUT, initial_value=False)
    stg.add_signal("done", SignalKind.OUTPUT, initial_value=False)
    for index in range(1, channels + 1):
        stg.add_signal(f"req{index}", SignalKind.OUTPUT, initial_value=False)
        stg.add_signal(f"ack{index}", SignalKind.INPUT, initial_value=False)
    for index in range(1, channels + 1):
        request, acknowledge = f"req{index}", f"ack{index}"
        stg.connect("go+", f"{request}+")
        stg.connect(f"{request}+", f"{acknowledge}+")
        stg.connect(f"{acknowledge}+", "done+")
        stg.connect("go-", f"{request}-")
        stg.connect(f"{request}-", f"{acknowledge}-")
        stg.connect(f"{acknowledge}-", "done-")
    stg.connect("done+", "go-")
    stg.connect("done-", "go+", tokens=1)
    return stg


def parallel_handshakes(count: int) -> STG:
    """``count`` independent 4-phase handshakes running concurrently.

    Each channel ``i`` has input ``r<i>`` and output ``a<i>`` cycling
    through ``r+ a+ r- a-``.  The channels share no places, so the
    reachable state count is exactly ``4 ** count`` -- the most extreme
    "high degree of parallelism" stress case for the traversal.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    stg = STG(f"parallel_handshakes_{count}")
    for index in range(1, count + 1):
        request, acknowledge = f"r{index}", f"a{index}"
        stg.add_signal(request, SignalKind.INPUT, initial_value=False)
        stg.add_signal(acknowledge, SignalKind.OUTPUT, initial_value=False)
        stg.connect(f"{request}+", f"{acknowledge}+")
        stg.connect(f"{acknowledge}+", f"{request}-")
        stg.connect(f"{request}-", f"{acknowledge}-")
        stg.connect(f"{acknowledge}-", f"{request}+", tokens=1)
    return stg


def pipeline_with_environment(stages: int) -> STG:
    """A Muller pipeline closed by an explicit environment loop.

    Same as :func:`muller_pipeline` but the last stage acknowledges back to
    the environment through an extra input ``ack``, making the
    specification a closed system (every signal has both a producer and a
    consumer of its transitions).  Used by the synthesis example.
    """
    stg = muller_pipeline(stages)
    stg.name = f"pipeline_env_{stages}"
    stg.add_signal("ack", SignalKind.INPUT, initial_value=False)
    last = f"c{stages}"
    stg.connect(f"{last}+", "ack+")
    stg.connect("ack+", f"{last}-")
    stg.connect(f"{last}-", "ack-")
    stg.connect("ack-", f"{last}+", tokens=1)
    return stg


def vme_read_cycle() -> STG:
    """The classical VME bus controller, read cycle only.

    A standard small industrial example from the asynchronous-synthesis
    literature: the controller translates the bus handshake (``dsr`` /
    ``dtack``) into the device handshake (``lds`` / ``ldtack``) and drives
    the data latch ``d``.  The specification is consistent and persistent
    but has the well-known *reducible* CSC conflict (binary code
    ``dsr ldtack lds d dtack = 11100`` occurs both before the data latch
    opens and while the device handshake unwinds), so it is
    I/O-implementable but not gate-implementable as specified.
    """
    stg = STG("vme_read")
    stg.add_signal("dsr", SignalKind.INPUT, initial_value=False)
    stg.add_signal("ldtack", SignalKind.INPUT, initial_value=False)
    stg.add_signal("lds", SignalKind.OUTPUT, initial_value=False)
    stg.add_signal("d", SignalKind.OUTPUT, initial_value=False)
    stg.add_signal("dtack", SignalKind.OUTPUT, initial_value=False)
    for source, target in [
        ("dsr+", "lds+"), ("lds+", "ldtack+"), ("ldtack+", "d+"),
        ("d+", "dtack+"), ("dtack+", "dsr-"), ("dsr-", "d-"),
        ("d-", "dtack-"), ("d-", "lds-"), ("lds-", "ldtack-"),
    ]:
        stg.connect(source, target)
    stg.connect("dtack-", "dsr+", tokens=1)
    stg.connect("ldtack-", "lds+", tokens=1)
    return stg


def vme_read_cycle_resolved() -> STG:
    """:func:`vme_read_cycle` with its CSC conflict resolved.

    An internal signal ``csc0`` is inserted (rising after ``d-``, falling
    after ``ldtack-``) with :func:`repro.stg.transform.insert_signal`,
    which distinguishes the two phases that shared the code ``11100``.
    The result satisfies CSC and is gate-implementable.
    """
    from repro.stg.transform import insert_signal

    resolved = insert_signal(vme_read_cycle(), "csc0",
                             rise_after="d-", fall_after="ldtack-")
    resolved.name = "vme_read_resolved"
    return resolved


# ----------------------------------------------------------------------
# Property-violation examples (paper Section 3 and tests)
# ----------------------------------------------------------------------
def inconsistent_example() -> STG:
    """The consistency violation of Section 3.1: ``b+ a+ b+/2`` is feasible.

    Signal ``b`` rises twice with no falling transition in between, so no
    consistent state assignment exists.
    """
    stg = STG("inconsistent")
    stg.add_signal("a", SignalKind.INPUT, initial_value=False)
    stg.add_signal("b", SignalKind.OUTPUT, initial_value=False)
    stg.connect("b+", "a+")
    stg.connect("a+", "b+/2")
    stg.connect("b+/2", "b-")
    stg.connect("b-", "a-")
    stg.connect("a-", "b+", tokens=1)
    return stg


def output_disabled_by_input() -> STG:
    """A persistency violation: an output transition is disabled by an input.

    From the initial state both ``a+`` (input) and ``b+`` (output) are
    enabled from the same choice place; firing the input kills the pending
    output transition -- a potential hazard (Definition 3.2, case 1).  The
    specification is consistent (each branch raises and lowers its signal
    exactly once per round), so the failure is isolated to persistency.
    """
    stg = STG("output_disabled_by_input")
    stg.add_signal("a", SignalKind.INPUT, initial_value=False)
    stg.add_signal("b", SignalKind.OUTPUT, initial_value=False)
    choice = stg.add_place("p_choice", tokens=1)
    # Branch A: the environment raises and lowers ``a``.
    stg.ensure_transition("a+")
    stg.add_arc(choice, "a+")
    stg.connect("a+", "a-")
    stg.ensure_transition("a-")
    stg.add_arc("a-", choice)
    # Branch B: the circuit raises and lowers ``b``.
    stg.ensure_transition("b+")
    stg.add_arc(choice, "b+")
    stg.connect("b+", "b-")
    stg.ensure_transition("b-")
    stg.add_arc("b-", choice)
    return stg


def csc_violation_example() -> STG:
    """A reducible CSC violation.

    One input ``a`` paces two alternating output pulses ``b`` and ``c``:
    the cycle is ``a+ b+ a- b- a+/2 c+ a-/2 c-``.  The two states with
    binary code ``a=1, b=0, c=0`` enable different outputs (``b+`` in the
    first half, ``c+`` in the second half), violating CSC.  The violation
    is *reducible*: inserting an internal phase signal distinguishes the
    halves without touching the input/output interface.
    """
    stg = STG("csc_violation")
    stg.add_signal("a", SignalKind.INPUT, initial_value=False)
    stg.add_signal("b", SignalKind.OUTPUT, initial_value=False)
    stg.add_signal("c", SignalKind.OUTPUT, initial_value=False)
    sequence = ["a+", "b+", "a-", "b-", "a+/2", "c+", "a-/2", "c-"]
    for current, following in zip(sequence, sequence[1:]):
        stg.connect(current, following)
    stg.connect(sequence[-1], sequence[0], tokens=1)
    return stg


def csc_resolved_example() -> STG:
    """The :func:`csc_violation_example` repaired with an internal signal.

    An internal phase signal ``x`` rises in the first half of the cycle and
    falls in the second half, so all state codes become unique and CSC is
    satisfied -- demonstrating the "reducible" classification.
    """
    stg = STG("csc_resolved")
    stg.add_signal("a", SignalKind.INPUT, initial_value=False)
    stg.add_signal("b", SignalKind.OUTPUT, initial_value=False)
    stg.add_signal("c", SignalKind.OUTPUT, initial_value=False)
    stg.add_signal("x", SignalKind.INTERNAL, initial_value=False)
    sequence = ["a+", "b+", "x+", "a-", "b-", "a+/2", "c+", "x-", "a-/2", "c-"]
    for current, following in zip(sequence, sequence[1:]):
        stg.connect(current, following)
    stg.connect(sequence[-1], sequence[0], tokens=1)
    return stg


def irreducible_csc_example() -> STG:
    """An irreducible CSC violation (mutually complementary input sequences).

    The environment chooses between two orders of raising the inputs ``a``
    and ``b``.  Order ``a then b`` requires the output pulse ``o+ ... o-``;
    order ``b then a`` does not.  After either order the binary code is
    ``a=1, b=1, o=0`` yet the required output behaviour differs, and the
    distinguishing information (the input order) cannot be recovered by
    inserting non-input signals: the two input sequences have equal
    unbalanced sets, which is exactly Definition 3.5(3).
    """
    stg = STG("irreducible_csc")
    stg.add_signal("a", SignalKind.INPUT, initial_value=False)
    stg.add_signal("b", SignalKind.INPUT, initial_value=False)
    stg.add_signal("o", SignalKind.OUTPUT, initial_value=False)
    choice = stg.add_place("p_choice", tokens=1)
    # Branch A: a+ b+ o+ a- b- o-  (output pulse expected).
    branch_a = ["a+", "b+", "o+", "a-", "b-", "o-"]
    stg.ensure_transition(branch_a[0])
    stg.add_arc(choice, branch_a[0])
    for current, following in zip(branch_a, branch_a[1:]):
        stg.connect(current, following)
    stg.ensure_transition(branch_a[-1])
    stg.add_arc(branch_a[-1], choice)
    # Branch B: b+/2 a+/2 a-/2 b-/2  (no output activity).
    branch_b = ["b+/2", "a+/2", "a-/2", "b-/2"]
    stg.ensure_transition(branch_b[0])
    stg.add_arc(choice, branch_b[0])
    for current, following in zip(branch_b, branch_b[1:]):
        stg.connect(current, following)
    stg.ensure_transition(branch_b[-1])
    stg.add_arc(branch_b[-1], choice)
    return stg


def fake_conflict_d1() -> STG:
    """The STG ``D1`` of Figure 3: transition conflicts that are fake.

    Transitions ``a+`` and ``b+/2`` are in direct conflict, yet firing one
    of them enables the other occurrence of the disabled signal, so neither
    *signal* is ever disabled.  The state graph is identical to the truly
    concurrent specification :func:`fake_conflict_d2`.
    """
    stg = STG("fake_conflict_d1")
    stg.add_signal("a", SignalKind.OUTPUT, initial_value=False)
    stg.add_signal("b", SignalKind.OUTPUT, initial_value=False)
    stg.add_signal("c", SignalKind.OUTPUT, initial_value=False)
    start = stg.add_place("p_start", tokens=1)
    for label in ("a+", "b+/2"):
        stg.ensure_transition(label)
        stg.add_arc(start, label)
    stg.connect("a+", "b+")      # firing a+ enables the other b occurrence
    stg.connect("b+/2", "a+/2")  # and vice versa
    join = stg.add_place("p_join")
    for label in ("b+", "a+/2"):
        stg.add_arc(label, join)
    stg.ensure_transition("c+")
    stg.add_arc(join, "c+")
    return stg


def fake_conflict_d2() -> STG:
    """The STG ``D2`` of Figure 3: the equivalent truly concurrent form."""
    stg = STG("fake_conflict_d2")
    stg.add_signal("a", SignalKind.OUTPUT, initial_value=False)
    stg.add_signal("b", SignalKind.OUTPUT, initial_value=False)
    stg.add_signal("c", SignalKind.OUTPUT, initial_value=False)
    for signal in ("a", "b"):
        start = stg.add_place(f"p_start_{signal}", tokens=1)
        stg.ensure_transition(f"{signal}+")
        stg.add_arc(start, f"{signal}+")
        stg.connect(f"{signal}+", "c+")
    return stg


def asymmetric_fake_conflict_example() -> STG:
    """An asymmetric fake conflict involving a non-input signal.

    Firing the input ``a+`` disables the output transition ``o+`` for good
    (the output signal itself is disabled), while firing ``o+`` leaves the
    input enabled through its second occurrence.  Such conflicts contradict
    persistency (Definition 3.2) and must be rejected.
    """
    stg = STG("asymmetric_fake_conflict")
    stg.add_signal("a", SignalKind.INPUT, initial_value=False)
    stg.add_signal("o", SignalKind.OUTPUT, initial_value=False)
    start = stg.add_place("p_start", tokens=1)
    for label in ("a+", "o+"):
        stg.ensure_transition(label)
        stg.add_arc(start, label)
    # Firing o+ re-enables the input through its second occurrence ...
    stg.connect("o+", "a+/2")
    # ... but firing a+ leaves signal o disabled forever.
    stg.connect("a+", "a-")
    stg.connect("a+/2", "a-/2")
    return stg


# ----------------------------------------------------------------------
# Random benchmark families (seeded, reproducible)
# ----------------------------------------------------------------------
# The paper validates its checks on a fixed table of hand-picked circuits;
# scaling the reproduction to corpus-size sweeps needs *families* of
# specifications with known structural invariants but varied coding
# behaviour.  Both generators below are driven by ``random.Random`` with a
# seed derived from their parameters, so the same arguments always produce
# byte-identical .g text on every platform and Python version (the
# Mersenne-Twister sequence is part of the language spec).

def _random_ring_into(stg: STG, names: List[str],
                      rng: random.Random) -> None:
    """Wire one random transition ring over ``names`` into ``stg``.

    The ring is a random interleaving of each signal's rising and falling
    transition in which every ``x+`` precedes the matching ``x-``; with all
    initial values 0 and the token on the closing arc this guarantees a
    consistent state assignment.  A ring has no choice places, so the
    instance is also output-persistent, deadlock-free, safe, and visits
    exactly ``2 * len(names)`` states.  Whether CSC/USC hold depends on the
    drawn order -- which is what makes the family useful: structural
    verdicts are pinned, coding verdicts vary per seed.
    """
    stg.add_signal(names[0], SignalKind.INPUT, initial_value=False)
    stg.add_signal(names[1], SignalKind.OUTPUT, initial_value=False)
    for name in names[2:]:
        kind = SignalKind.INPUT if rng.random() < 0.35 else SignalKind.OUTPUT
        stg.add_signal(name, kind, initial_value=False)
    remaining = {name: ["+", "-"] for name in names}
    order: List[str] = []
    pool = list(names)
    while pool:
        name = rng.choice(pool)
        order.append(name + remaining[name].pop(0))
        if not remaining[name]:
            pool.remove(name)
    for current, following in zip(order, order[1:]):
        stg.connect(current, following)
    stg.connect(order[-1], order[0], tokens=1)


def random_ring(signals: int, seed: int) -> STG:
    """A random sequential transition ring over ``signals`` signals.

    Guaranteed properties (any seed): consistent, output-persistent,
    deadlock-free, safe, exactly ``2 * signals`` reachable states, at
    least one input and one output.  CSC/USC vary with the seed, so a
    sweep over seeds exercises every branch of the classification
    (gate / I/O / SI-implementable).
    """
    if signals < 2:
        raise ValueError("signals must be >= 2 (one input, one output)")
    stg = STG(f"random_ring_n{signals}_s{seed}")
    rng = random.Random(1000003 * seed + signals)
    _random_ring_into(stg, [f"x{i}" for i in range(signals)], rng)
    return stg


def random_parallel_ring_sizes(rings: int, seed: int) -> List[int]:
    """Per-ring signal counts of :func:`random_parallel` (deterministic).

    Exposed so the corpus registry can pin the expected reachable-state
    count ``prod(2 * size)`` without building the instance.
    """
    rng = random.Random(7919 * seed + rings)
    return [rng.randint(2, 4) for _ in range(rings)]


def random_parallel(rings: int, seed: int) -> STG:
    """``rings`` independent random transition rings running concurrently.

    Each ring is drawn by the :func:`random_ring` construction with its own
    sub-seed and a size from :func:`random_parallel_ring_sizes`; the rings
    share no places, so the reachable-state count is exactly the product of
    the ring lengths -- a randomised version of the
    :func:`parallel_handshakes` concurrency stress family.
    """
    if rings < 1:
        raise ValueError("rings must be >= 1")
    stg = STG(f"random_parallel_r{rings}_s{seed}")
    for index, size in enumerate(random_parallel_ring_sizes(rings, seed)):
        rng = random.Random((seed * 31 + index) * 1000003 + size)
        _random_ring_into(stg, [f"r{index}x{i}" for i in range(size)], rng)
    return stg


def random_parallel_state_count(rings: int, seed: int) -> int:
    """Exact reachable-state count of the matching :func:`random_parallel`."""
    count = 1
    for size in random_parallel_ring_sizes(rings, seed):
        count *= 2 * size
    return count


def random_ring_family(scale: int) -> STG:
    """Scalable-family adapter: one ``scale`` value = one (size, seed) pair.

    The signal count cycles through 3..8 while the seed increments, so a
    scale sweep ``1..N`` yields ``N`` structurally distinct instances --
    this is how corpus-scale sweeps get hundreds of entries from one
    family name.
    """
    return random_ring(3 + scale % 6, scale)


def random_parallel_family(scale: int) -> STG:
    """Scalable-family adapter for :func:`random_parallel` (2-4 rings)."""
    return random_parallel(2 + scale % 3, scale)


# ----------------------------------------------------------------------
# Registry used by the CLI and the benchmark harness
# ----------------------------------------------------------------------
SCALABLE_FAMILIES = {
    "muller_pipeline": muller_pipeline,
    "master_read": master_read,
    "parallel_handshakes": parallel_handshakes,
    "mutex": mutex_element,
    "random_ring": random_ring_family,
    "random_parallel": random_parallel_family,
}

FIXED_EXAMPLES = {
    "handshake": handshake,
    "mutex_element": mutex_element,
    "vme_read": vme_read_cycle,
    "vme_read_resolved": vme_read_cycle_resolved,
    "inconsistent": inconsistent_example,
    "output_disabled_by_input": output_disabled_by_input,
    "csc_violation": csc_violation_example,
    "csc_resolved": csc_resolved_example,
    "irreducible_csc": irreducible_csc_example,
    "fake_conflict_d1": fake_conflict_d1,
    "fake_conflict_d2": fake_conflict_d2,
    "asymmetric_fake_conflict": asymmetric_fake_conflict_example,
}


class UnknownExampleError(UnknownNameError, ValueError):
    """No fixed example or scalable family has the requested name."""

    kind = "example"


def build_example(name: str, scale: int | None = None) -> STG:
    """Instantiate a named example.

    ``name`` is either a fixed example or a scalable family (then ``scale``
    is required).
    """
    if name in FIXED_EXAMPLES and scale is None:
        return FIXED_EXAMPLES[name]()
    if name in SCALABLE_FAMILIES:
        if scale is None:
            raise ValueError(f"family {name!r} needs a scale parameter")
        return SCALABLE_FAMILIES[name](scale)
    if name in FIXED_EXAMPLES:
        return FIXED_EXAMPLES[name]()
    raise UnknownExampleError(name, [*FIXED_EXAMPLES, *SCALABLE_FAMILIES])
