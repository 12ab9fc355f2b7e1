#!/usr/bin/env python3
"""Complete State Coding: diagnosis, reducibility and manual resolution.

Walks through the three CSC situations distinguished by the paper:

1. a *reducible* CSC violation -- the specification is I/O-implementable
   but not gate-implementable; an internal phase signal inserted by the
   designer repairs it without touching the interface;
2. the repaired specification -- CSC (and even USC) hold and the output
   logic can be derived;
3. an *irreducible* CSC violation -- mutually complementary input
   sequences make the conflict unresolvable without changing the
   interface (Definition 3.5(3) / Section 5.3).

Run with::

    python examples/csc_resolution.py
"""

from repro.api import verify
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import symbolic_traversal
from repro.sg import build_state_graph
from repro.sg.traces import bounded_trace_equivalent
from repro.stg.generators import (
    csc_resolved_example,
    csc_violation_example,
    irreducible_csc_example,
)
from repro.synthesis import synthesize_complex_gates


def report(stg, title):
    print("=" * 72)
    print(title)
    print("=" * 72)
    result = verify(stg)
    print(result.summary())
    print()
    return result


def main() -> None:
    violating = csc_violation_example()
    resolved = csc_resolved_example()
    irreducible = irreducible_csc_example()

    report(violating, "1. Reducible CSC violation (alternating output pulses)")
    resolved_report = report(
        resolved, "2. The same behaviour with an inserted internal signal x")
    report(irreducible,
           "3. Irreducible violation (the input order carries the state)")

    # The insertion did not change the observable behaviour.
    graph_violating = build_state_graph(violating).graph
    graph_resolved = build_state_graph(resolved).graph
    observable = ["a", "b", "c"]
    equivalent = bounded_trace_equivalent(
        graph_violating, violating, graph_resolved, resolved, observable, 10)
    print(f"observable behaviour preserved by the insertion "
          f"(bounded I/O trace check): {equivalent}")

    if resolved_report.gate_implementable:
        encoding = SymbolicEncoding(resolved)
        image = SymbolicImage(encoding)
        reached, _ = symbolic_traversal(encoding, image=image)
        gates = synthesize_complex_gates(encoding, reached, image.charfun)
        print()
        print("derived logic for the repaired specification:")
        for gate in gates.values():
            print(f"  {gate}")


if __name__ == "__main__":
    main()
