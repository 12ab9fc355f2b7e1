"""One name registry, and the error every unknown name raises.

Engines, execution backends, property checks, corpus entries, benchmark
families and a tracer's metrics are all looked up by name.  Each lives
in a :class:`Registry` bound to its own :class:`UnknownNameError`
subclass, so every lookup fails the same way -- the kind of thing, the
options and the close matches::

    ENGINES = Registry(UnknownEngineError, [("symbolic", SymbolicEngine())])
    ENGINES.get("symbolc")
    # UnknownEngineError: unknown engine 'symbolc'; available: symbolic;
    # did you mean: symbolic?

The engines, the execution backends, the property checks and the
benchmark families are fixed tables, filled once at import from the
constructor's ``items``; the corpus and a tracer's metrics
:meth:`~Registry.register` as they go.
"""

from __future__ import annotations

import difflib
from typing import (
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

Item = TypeVar("Item")


def suggest(name: str, options: Iterable[str]) -> str:
    """A ``"; did you mean: ..."`` suffix (empty when nothing is close)."""
    close = difflib.get_close_matches(name, list(options), n=3)
    return f"; did you mean: {', '.join(close)}?" if close else ""


class UnknownNameError(Exception):
    """A name nothing is registered under.

    Subclasses set :attr:`kind` (``"engine"``, ``"corpus entry"``, ...)
    and add the base class their callers catch (``ValueError``,
    ``KeyError``, ...).  ``message`` replaces the default text.
    """

    kind = "name"

    # KeyError.__str__ renders the repr of the message (quotes included);
    # the KeyError subclasses print it plainly.
    __str__ = BaseException.__str__

    def __init__(self, name: str, options: Iterable[str],
                 message: Optional[str] = None) -> None:
        self.name = name
        self.options = list(options)
        super().__init__(message or (
            f"unknown {self.kind} {name!r}; available: "
            f"{', '.join(self.options) or '(none)'}"
            f"{suggest(name, self.options)}"))

    def __reduce__(self):
        # Rebuilt from all three arguments, not from ``args`` alone, so
        # the error survives the trip back from a worker process.
        return type(self), (self.name, self.options, self.args[0])


class Registry(Generic[Item]):
    """Named items in registration order, starting with ``items``.

    :meth:`get` (and ``registry[name]``) raises ``error`` for an unknown
    name; registering a name twice is a ``ValueError`` named after
    ``error.kind``.
    """

    def __init__(self, error: Type[UnknownNameError],
                 items: Iterable[Tuple[str, Item]] = ()) -> None:
        self._error = error
        self._items: Dict[str, Item] = {}
        for name, item in items:
            self.register(name, item)

    def register(self, name: str, item: Item) -> Item:
        """Register ``item`` under ``name``."""
        if name in self._items:
            raise ValueError(f"duplicate {self._error.kind} {name!r}")
        self._items[name] = item
        return item

    def available(self) -> List[str]:
        """Every registered name, in registration order."""
        return list(self._items)

    def get(self, name: str) -> Item:
        """The item registered under ``name``."""
        try:
            return self._items[name]
        except KeyError:
            raise self._error(name, self._items) from None

    __getitem__ = get

    def __contains__(self, name: object) -> bool:
        return name in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)
