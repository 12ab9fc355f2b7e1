"""Immutable markings (token assignments) of a Petri net."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple


class Marking(Mapping[str, int]):
    """An immutable mapping from place names to token counts.

    Places not present in the mapping hold zero tokens.  Markings are
    hashable so they can be used as graph vertices and dictionary keys.

    >>> m = Marking({"p1": 1, "p2": 0})
    >>> m["p1"], m["p2"], m["p3"]
    (1, 0, 0)
    """

    __slots__ = ("_tokens", "_hash")

    def __init__(self, tokens: Mapping[str, int] | Iterable[Tuple[str, int]] = ()):
        items = dict(tokens)
        for place, count in items.items():
            if count < 0:
                raise ValueError(f"negative token count for place {place!r}")
        # Zero entries are dropped so equal markings have equal storage.
        self._tokens: Dict[str, int] = {
            place: count for place, count in items.items() if count > 0}
        self._hash = hash(frozenset(self._tokens.items()))

    # Mapping interface -------------------------------------------------
    def __getitem__(self, place: str) -> int:
        return self._tokens.get(place, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, place: object) -> bool:
        return place in self._tokens

    # Identity ----------------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self._tokens == other._tokens
        if isinstance(other, Mapping):
            return self == Marking(other)
        return NotImplemented

    # Queries -----------------------------------------------------------
    def total_tokens(self) -> int:
        """Total number of tokens in the marking."""
        return sum(self._tokens.values())

    def max_tokens(self) -> int:
        """The largest token count of any place (0 for the empty marking)."""
        return max(self._tokens.values(), default=0)

    # Updates (produce new markings) ------------------------------------
    def add(self, places: Iterable[str], amount: int = 1) -> "Marking":
        """Return a new marking with ``amount`` extra tokens on ``places``."""
        tokens = dict(self._tokens)
        for place in places:
            tokens[place] = tokens.get(place, 0) + amount
        return Marking(tokens)

    def remove(self, places: Iterable[str], amount: int = 1) -> "Marking":
        """Return a new marking with ``amount`` fewer tokens on ``places``."""
        tokens = dict(self._tokens)
        for place in places:
            current = tokens.get(place, 0) - amount
            if current < 0:
                raise ValueError(
                    f"cannot remove {amount} token(s) from place {place!r}")
            tokens[place] = current
        return Marking(tokens)

    def __repr__(self) -> str:
        inside = ", ".join(f"{place}:{count}"
                           for place, count in sorted(self._tokens.items()))
        return f"Marking({{{inside}}})"
