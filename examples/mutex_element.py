#!/usr/bin/env python3
"""The paper's Figure 1: a two-user mutual exclusion element.

Reproduces the running example of the paper end to end:

* builds the 9-place / 8-transition STG of Figure 1,
* shows the three state models of Figure 2 (reachability graph, state
  graph, full state graph) by printing their sizes and the binary codes,
* demonstrates the arbitration subtlety of Definition 3.2: the grant
  conflict violates persistency unless the shared place is declared an
  arbitration point,
* checks CSC and derives the grant logic (set/reset covers of a
  generalised C-element per grant signal).

Run with::

    python examples/mutex_element.py [users]
"""

import sys

from repro.api import EngineConfig, verify
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import symbolic_traversal
from repro.petri import build_reachability_graph
from repro.sg import build_state_graph
from repro.stg import to_g_string
from repro.stg.generators import mutex_arbitration_places, mutex_element
from repro.synthesis import synthesize_generalized_c_elements


def main() -> None:
    users = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    stg = mutex_element(users)
    print(f"Mutual exclusion element with {users} users "
          f"({stg.net.num_places} places, {stg.net.num_transitions} "
          f"transitions, {len(stg.signals)} signals)")
    print()
    print(to_g_string(stg))

    # Figure 2: the three state models.
    reachability = build_reachability_graph(stg.net)
    full_state_graph = build_state_graph(stg).graph
    print(f"reachability graph : {reachability.num_markings} markings, "
          f"{reachability.num_edges} edges")
    print(f"full state graph   : {full_state_graph.num_states} states "
          f"({full_state_graph.distinct_codes()} distinct binary codes)")
    if users == 2:
        print("state codes (r1 r2 g1 g2):",
              sorted(s.code_string(stg.signals) for s in full_state_graph.states))
    print()

    # Persistency with and without arbitration (Definition 3.2 footnote).
    plain = verify(stg)
    print("--- without declaring the arbitration point ---")
    print(plain.summary())
    print()
    arbitration = mutex_arbitration_places(stg)
    tolerant = verify(stg, EngineConfig(arbitration_places=tuple(arbitration)))
    print(f"--- declaring {arbitration} as arbitration point(s) ---")
    print(tolerant.summary())
    print()

    # Grant logic (generalised C-elements).
    encoding = SymbolicEncoding(stg)
    image = SymbolicImage(encoding)
    reached, _ = symbolic_traversal(encoding, image=image)
    elements = synthesize_generalized_c_elements(encoding, reached, image.charfun)
    print("grant logic (set/reset covers):")
    for element in elements.values():
        print(f"  {element}")


if __name__ == "__main__":
    main()
