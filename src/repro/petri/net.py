"""Petri net structure: places, transitions, flow relation and firing rule.

Follows Section 2 of the paper: a Petri net is ``N = (P, T, F, m0)`` with
``F`` a subset of ``(P x T) U (T x P)`` (ordinary arcs, no weights).  A
transition is enabled when all of its input places are marked; firing it
removes one token from each input place and adds one token to each output
place.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.petri.marking import Marking


class PetriNetError(Exception):
    """Raised for structurally invalid nets or illegal operations."""


class Place:
    """A place of a Petri net.

    Attributes
    ----------
    name:
        Unique identifier inside the net.
    initial_tokens:
        Token count in the initial marking.
    """

    __slots__ = ("name", "initial_tokens")

    def __init__(self, name: str, initial_tokens: int = 0) -> None:
        if initial_tokens < 0:
            raise PetriNetError(f"place {name!r}: negative initial marking")
        self.name = name
        self.initial_tokens = initial_tokens

    def __repr__(self) -> str:
        return f"Place({self.name!r}, tokens={self.initial_tokens})"


class Transition:
    """A transition of a Petri net.

    The optional ``label`` carries the interpretation attached by higher
    layers (for STGs: a signal transition such as ``a+`` or ``b-``); the
    plain Petri-net layer never inspects it.
    """

    __slots__ = ("name", "label")

    def __init__(self, name: str, label: Optional[object] = None) -> None:
        self.name = name
        self.label = label

    def __repr__(self) -> str:
        if self.label is None:
            return f"Transition({self.name!r})"
        return f"Transition({self.name!r}, label={self.label!r})"


class PetriNet:
    """A Petri net ``(P, T, F, m0)`` with ordinary (weight-1) arcs.

    Places and transitions are identified by name.  The flow relation is
    stored as pre-set / post-set adjacency for both node kinds, so the
    neighbourhood queries used throughout the paper (``•t``, ``t•``, ``•p``,
    ``p•``) are O(degree).

    Examples
    --------
    >>> net = PetriNet("toggle")
    >>> _ = net.add_place("p0", tokens=1)
    >>> _ = net.add_place("p1")
    >>> _ = net.add_transition("t01")
    >>> _ = net.add_transition("t10")
    >>> net.add_arc("p0", "t01"); net.add_arc("t01", "p1")
    >>> net.add_arc("p1", "t10"); net.add_arc("t10", "p0")
    >>> sorted(net.enabled_transitions(net.initial_marking))
    ['t01']
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: Dict[str, Place] = {}
        self._transitions: Dict[str, Transition] = {}
        # Flow relation as adjacency.
        self._place_pre: Dict[str, Set[str]] = {}   # •p  (transitions)
        self._place_post: Dict[str, Set[str]] = {}  # p•  (transitions)
        self._trans_pre: Dict[str, Set[str]] = {}   # •t  (places)
        self._trans_post: Dict[str, Set[str]] = {}  # t•  (places)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_place(self, name: str, tokens: int = 0) -> Place:
        """Add a place; returns the created :class:`Place`."""
        if name in self._places:
            raise PetriNetError(f"duplicate place {name!r}")
        if name in self._transitions:
            raise PetriNetError(f"name {name!r} already used by a transition")
        place = Place(name, tokens)
        self._places[name] = place
        self._place_pre[name] = set()
        self._place_post[name] = set()
        return place

    def add_transition(self, name: str, label: Optional[object] = None) -> Transition:
        """Add a transition; returns the created :class:`Transition`."""
        if name in self._transitions:
            raise PetriNetError(f"duplicate transition {name!r}")
        if name in self._places:
            raise PetriNetError(f"name {name!r} already used by a place")
        transition = Transition(name, label)
        self._transitions[name] = transition
        self._trans_pre[name] = set()
        self._trans_post[name] = set()
        return transition

    def add_arc(self, source: str, target: str) -> None:
        """Add a flow arc from ``source`` to ``target``.

        Exactly one endpoint must be a place and the other a transition.
        Duplicate arcs are ignored (the flow relation is a set).
        """
        if source in self._places and target in self._transitions:
            self._place_post[source].add(target)
            self._trans_pre[target].add(source)
        elif source in self._transitions and target in self._places:
            self._trans_post[source].add(target)
            self._place_pre[target].add(source)
        else:
            raise PetriNetError(
                f"arc {source!r} -> {target!r} must connect a place and a "
                f"transition that both exist in the net")

    def remove_arc(self, source: str, target: str) -> None:
        """Remove a flow arc (no-op if the arc does not exist)."""
        if source in self._places and target in self._transitions:
            self._place_post[source].discard(target)
            self._trans_pre[target].discard(source)
        elif source in self._transitions and target in self._places:
            self._trans_post[source].discard(target)
            self._place_pre[target].discard(source)
        else:
            raise PetriNetError(
                f"arc {source!r} -> {target!r} must connect a place and a "
                f"transition that both exist in the net")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def places(self) -> List[str]:
        """Place names in insertion order."""
        return list(self._places)

    @property
    def transitions(self) -> List[str]:
        """Transition names in insertion order."""
        return list(self._transitions)

    @property
    def num_places(self) -> int:
        return len(self._places)

    @property
    def num_transitions(self) -> int:
        return len(self._transitions)

    def place(self, name: str) -> Place:
        """The :class:`Place` object for ``name``."""
        try:
            return self._places[name]
        except KeyError as exc:
            raise PetriNetError(f"unknown place {name!r}") from exc

    def transition(self, name: str) -> Transition:
        """The :class:`Transition` object for ``name``."""
        try:
            return self._transitions[name]
        except KeyError as exc:
            raise PetriNetError(f"unknown transition {name!r}") from exc

    def has_place(self, name: str) -> bool:
        return name in self._places

    def has_transition(self, name: str) -> bool:
        return name in self._transitions

    def preset_of_transition(self, name: str) -> Set[str]:
        """``•t``: the input places of a transition."""
        self.transition(name)
        return set(self._trans_pre[name])

    def postset_of_transition(self, name: str) -> Set[str]:
        """``t•``: the output places of a transition."""
        self.transition(name)
        return set(self._trans_post[name])

    def preset_of_place(self, name: str) -> Set[str]:
        """``•p``: the input transitions of a place."""
        self.place(name)
        return set(self._place_pre[name])

    def postset_of_place(self, name: str) -> Set[str]:
        """``p•``: the output transitions of a place."""
        self.place(name)
        return set(self._place_post[name])

    def arcs(self) -> Iterator[Tuple[str, str]]:
        """Iterate over every arc of the flow relation."""
        for place, transitions in self._place_post.items():
            for transition in sorted(transitions):
                yield (place, transition)
        for transition, places in self._trans_post.items():
            for place in sorted(places):
                yield (transition, place)

    # ------------------------------------------------------------------
    # Initial marking and firing rule
    # ------------------------------------------------------------------
    @property
    def initial_marking(self) -> Marking:
        """The initial marking ``m0`` built from the places' token counts."""
        return Marking({name: place.initial_tokens
                        for name, place in self._places.items()})

    def set_initial_tokens(self, place: str, tokens: int) -> None:
        """Change the initial token count of a place."""
        self.place(place).initial_tokens = tokens
        if tokens < 0:
            raise PetriNetError(f"place {place!r}: negative initial marking")

    def is_enabled(self, transition: str, marking: Marking) -> bool:
        """True iff every input place of ``transition`` is marked."""
        self.transition(transition)
        return all(marking[place] >= 1 for place in self._trans_pre[transition])

    def enabled_transitions(self, marking: Marking) -> List[str]:
        """All transitions enabled at ``marking`` (in insertion order)."""
        return [name for name in self._transitions
                if self.is_enabled(name, marking)]

    def fire(self, transition: str, marking: Marking) -> Marking:
        """Fire an enabled transition and return the successor marking."""
        if not self.is_enabled(transition, marking):
            raise PetriNetError(
                f"transition {transition!r} is not enabled at {marking!r}")
        after_consume = marking.remove(self._trans_pre[transition])
        return after_consume.add(self._trans_post[transition])

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "PetriNet":
        """Deep copy of the net (labels are shared, structure is copied)."""
        clone = PetriNet(self.name if name is None else name)
        for place_name, place in self._places.items():
            clone.add_place(place_name, place.initial_tokens)
        for transition_name, transition in self._transitions.items():
            clone.add_transition(transition_name, transition.label)
        for source, target in self.arcs():
            clone.add_arc(source, target)
        return clone

    def __repr__(self) -> str:
        return (f"PetriNet({self.name!r}, places={self.num_places}, "
                f"transitions={self.num_transitions})")
