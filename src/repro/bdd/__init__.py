"""Reduced Ordered Binary Decision Diagram (ROBDD) engine.

This package is a self-contained, pure-Python BDD library used as the
symbolic substrate of the reproduction.  It provides:

* :class:`~repro.bdd.manager.BDDManager` -- node store, unique table
  and ``ite``,
* :class:`~repro.bdd.function.Function` -- a handle to a BDD root with
  Python operator overloading (``&``, ``|``, ``~``, ``^``, ...),
* quantification, cofactoring, composition and renaming
  (:mod:`repro.bdd.operators`),
* model counting / enumeration and support computation
  (:mod:`repro.bdd.analysis`),
* static variable-ordering heuristics and reordering by rebuild
  (:mod:`repro.bdd.ordering`),
* irredundant sum-of-products cover extraction (:mod:`repro.bdd.cover`).

The library uses plain (non-complemented) edges, so every boolean
function has exactly one node identifier inside a given manager and
equality of functions is equality of identifiers.
"""

from repro.bdd.manager import BDDManager, BDDError, BDDOrderError
from repro.bdd.function import Function
from repro.bdd.ordering import force_ordering, reorder_by_rebuild

__all__ = [
    "BDDManager",
    "BDDError",
    "BDDOrderError",
    "Function",
    "force_ordering",
    "reorder_by_rebuild",
]
