"""Petri net substrate: nets, markings, explicit reachability and analysis.

The paper's specifications are Signal Transition Graphs, i.e. interpreted
Petri nets.  This package provides the uninterpreted layer:

* :class:`~repro.petri.net.PetriNet`, :class:`~repro.petri.net.Place`,
  :class:`~repro.petri.net.Transition` -- the net structure ``(P, T, F, m0)``,
* :class:`~repro.petri.marking.Marking` -- immutable token assignments,
* :mod:`repro.petri.reachability` -- explicit reachability graphs,
* :mod:`repro.petri.analysis` -- boundedness, safeness, deadlocks and
  explicit transition persistency,
* :mod:`repro.petri.structure` -- structural classes (marked graph,
  state machine, free choice) and conflict places.
"""

from repro.petri.net import PetriNet, Place, Transition, PetriNetError
from repro.petri.marking import Marking
from repro.petri.reachability import ReachabilityGraph, build_reachability_graph

__all__ = [
    "PetriNet",
    "Place",
    "Transition",
    "PetriNetError",
    "Marking",
    "ReachabilityGraph",
    "build_reachability_graph",
]
