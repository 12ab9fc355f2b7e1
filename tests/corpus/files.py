"""Corpus helpers of the tests: fixture files and structural equality."""

from __future__ import annotations

import os

from repro import corpus
from repro.stg.stg import STG


def ensure_g_file(name: str, directory: str) -> str:
    """Path of ``<directory>/<name>.g``, materialising it when missing.

    Existing files are left untouched (they are checked-in fixtures; a
    dedicated test asserts they stay in sync with the registry).
    """
    path = os.path.join(directory, f"{name}.g")
    if not os.path.exists(path):
        corpus.write_g(name, path)
    return path


def _arc_signature(stg: STG) -> dict:
    """Hashable summary of the net structure with stable place identities.

    Place names are kept as-is: both sides of a roundtrip comparison have
    gone through the parser, which names implicit places canonically
    (``<t1,t2>``), so name-level comparison is exact.
    """
    return {
        "signals": {s: stg.kind_of(s) for s in stg.signals},
        "initial_values": stg.initial_values,
        "transitions": frozenset(stg.transitions),
        "places": frozenset(stg.places),
        "arcs": frozenset(
            (place,
             frozenset(stg.net.preset_of_place(place)),
             frozenset(stg.net.postset_of_place(place)))
            for place in stg.places),
        "marking": {place: stg.initial_marking()[place]
                    for place in stg.places
                    if stg.initial_marking()[place]},
    }


def structurally_equal(first: STG, second: STG) -> bool:
    """True when two STGs have identical interface, structure and marking."""
    return _arc_signature(first) == _arc_signature(second)
