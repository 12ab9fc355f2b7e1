"""Shared material for the incremental-verification (repro.delta) tests.

The canonical editor-loop scenario: a Muller-pipeline base specification
plus small programmatic edits of every reuse tier -- a disconnected
probe cycle (seed, closed), the same cycle reading an existing place
(seed, full sweep), and an arc between existing nodes and
removals/renames (cold).
"""

import pytest

from repro.stg.generators import build_example
from repro.stg.parser import parse_g
from repro.stg.stg import SignalKind
from repro.stg.writer import to_g_string


def copy_stg(stg, name=None):
    """A deep copy via the canonical text round-trip.

    ``name`` rewrites the ``.model`` line (``parse_g``'s own ``name=``
    is only a fallback for texts without one), so the copy really is a
    differently-named model with different canonical text.
    """
    text = to_g_string(stg)
    if name is not None:
        text = "\n".join(f".model {name}"
                         if line.startswith(".model") else line
                         for line in text.splitlines()) + "\n"
    return parse_g(text, name=name or stg.name)


def add_probe_cycle(stg, signal="xprobe", skip_arc=None,
                    read_place=None):
    """Add a two-phase cycle of a fresh internal signal.

    ``skip_arc`` omits one of the cycle's arcs (used to build a base
    that has strictly *more* structure than the edit, i.e. a removal
    delta).  ``read_place`` additionally self-loops the rising
    transition on an existing place -- marking-preserving, so the net
    stays safe, but the added transition's environment now touches the
    base net (seed tier, not closed).
    """
    rising, falling = f"{signal}+", f"{signal}-"
    p0, p1 = f"p_{signal}0", f"p_{signal}1"
    stg.add_signal(signal, SignalKind.INTERNAL, initial_value=False)
    stg.add_place(p0, tokens=1)
    stg.add_place(p1)
    stg.add_transition(rising)
    stg.add_transition(falling)
    for arc in ((p0, rising), (rising, p1), (p1, falling), (falling, p0)):
        if arc != skip_arc:
            stg.add_arc(*arc)
    if read_place is not None:
        stg.add_arc(read_place, rising)
        stg.add_arc(rising, read_place)
    return stg


@pytest.fixture(name="copy_stg")
def copy_stg_fixture():
    return copy_stg


@pytest.fixture(name="add_probe_cycle")
def add_probe_cycle_fixture():
    return add_probe_cycle


@pytest.fixture
def base_stg():
    return build_example("muller_pipeline", 4)


@pytest.fixture
def edit_closed(base_stg):
    """Seed tier, closed: the probe cycle is disconnected from the base."""
    return add_probe_cycle(copy_stg(base_stg, name="edited"))


@pytest.fixture
def edit_open(base_stg):
    """Seed tier, not closed: the probe reads an existing place."""
    place = sorted(base_stg.places)[0]
    return add_probe_cycle(copy_stg(base_stg, name="edited"),
                           read_place=place)


@pytest.fixture
def edit_new_arc(base_stg):
    """Prewarm tier: an arc between two *existing* nodes.

    A marking-preserving self-loop of an existing transition on an
    existing place it did not touch before -- additive, but it changes
    that transition's environment.
    """
    edited = copy_stg(base_stg, name="edited")
    transition = sorted(edited.transitions)[0]
    touched = (set(edited.net.preset_of_transition(transition))
               | set(edited.net.postset_of_transition(transition)))
    marking = edited.initial_marking()
    place = sorted(place for place in edited.places
                   if place not in touched and marking.get(place, 0))[0]
    edited.add_arc(place, transition)
    edited.add_arc(transition, place)
    return edited


@pytest.fixture
def edit_removed_arc(base_stg):
    """Cold tier: the "edit" removes an arc (base has more structure)."""
    return add_probe_cycle(copy_stg(base_stg, name="edited"),
                           skip_arc=(f"p_xprobe1", f"xprobe-"))


@pytest.fixture
def base_with_cycle(base_stg):
    """The base that edit_removed_arc / edit_renamed diff against."""
    return add_probe_cycle(copy_stg(base_stg, name="base"))


@pytest.fixture
def edit_renamed(base_stg):
    """Cold tier: the probe signal is renamed (a removal plus an add)."""
    return add_probe_cycle(copy_stg(base_stg, name="edited"),
                           signal="yprobe")
