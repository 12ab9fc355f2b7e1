#!/usr/bin/env python3
"""Quickstart: specify an STG, check its implementability, derive the logic.

This walks through the complete workflow of the library on the smallest
useful specification (a 4-phase handshake) and on a deliberately broken
variant, printing every intermediate result:

1. build an STG with the programmatic API,
2. validate its structure,
3. verify implementability through the ``repro.api`` facade (symbolic
   BDD traversal),
4. compare with the explicit enumeration engine,
5. derive and verify the complex-gate logic from the facade run's
   shared intermediates.

Run with::

    python examples/quickstart.py
"""

from repro import api
from repro.sg import build_state_graph
from repro.stg import STG, SignalKind, to_g_string
from repro.stg.validate import validate_structure
from repro.synthesis import (
    derive_next_state_functions,
    synthesize_complex_gates,
    verify_implementation,
)


def build_handshake() -> STG:
    """A 4-phase handshake: the environment raises ``r``, we answer ``a``."""
    stg = STG("quickstart_handshake")
    stg.add_signal("r", SignalKind.INPUT, initial_value=False)
    stg.add_signal("a", SignalKind.OUTPUT, initial_value=False)
    stg.connect("r+", "a+")
    stg.connect("a+", "r-")
    stg.connect("r-", "a-")
    stg.connect("a-", "r+", tokens=1)   # token: the environment starts
    return stg


def build_broken_handshake() -> STG:
    """The same interface, but the output may be disabled by the input."""
    stg = STG("broken_handshake")
    stg.add_signal("r", SignalKind.INPUT, initial_value=False)
    stg.add_signal("a", SignalKind.OUTPUT, initial_value=False)
    choice = stg.add_place("p_choice", tokens=1)
    for label in ("r+", "a+"):
        stg.ensure_transition(label)
        stg.add_arc(choice, label)
    stg.connect("r+", "r-")
    stg.ensure_transition("r-")
    stg.add_arc("r-", choice)
    stg.connect("a+", "a-")
    stg.ensure_transition("a-")
    stg.add_arc("a-", choice)
    return stg


def check_and_report(stg: STG) -> None:
    print("=" * 72)
    print(f"Specification: {stg.name}")
    print("=" * 72)
    print(to_g_string(stg))

    validation = validate_structure(stg)
    print(f"structural validation: {validation}")

    outcome = api.run(stg)              # symbolic engine, defaults
    symbolic_report = outcome.report
    print()
    print(symbolic_report.summary())

    explicit_report = api.verify(stg, api.EngineConfig(engine="explicit"))
    print()
    print(f"explicit engine agrees on the classification: "
          f"{explicit_report.classification == symbolic_report.classification}")

    if symbolic_report.gate_implementable:
        # The facade run already computed the shared intermediates --
        # encoding, image operator and reachable-state BDD -- reuse them.
        pipeline = outcome.pipeline
        functions = derive_next_state_functions(pipeline.encoding,
                                                pipeline.reached)
        gates = synthesize_complex_gates(pipeline.encoding, pipeline.reached)
        print()
        print("derived complex-gate equations:")
        for gate in gates.values():
            print(f"  {gate}")
        graph = build_state_graph(stg).graph
        verification = verify_implementation(
            pipeline.encoding, graph, gates, functions)
        print(f"verification against the explicit state graph: {verification}")
    print()


def main() -> None:
    check_and_report(build_handshake())
    check_and_report(build_broken_handshake())


if __name__ == "__main__":
    main()
