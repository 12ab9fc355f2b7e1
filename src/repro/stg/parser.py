"""Parser for the ``.g`` (ASTG / SIS / petrify) STG interchange format.

The supported subset covers the files produced by
:mod:`repro.stg.writer` and the classical benchmark files:

* ``.model NAME`` (also ``.name``) -- model name,
* ``.inputs`` / ``.outputs`` / ``.internal`` -- signal declarations,
* ``.graph`` -- adjacency lines ``node successor1 successor2 ...`` where a
  node is a signal transition (``a+``, ``b-/2``) or an explicit place
  (any other identifier),
* ``.marking { p1 <a+,b-> ... }`` -- initially marked places, using
  ``<t1,t2>`` for the implicit place between two transitions,
* ``.initial_values a=0 b=1`` -- optional extension recording the initial
  signal values (absent in classical files, where values are inferred),
* ``.capacity``, ``.coords``, comments (``#``) and ``.end`` are accepted
  and ignored where harmless.

``.dummy`` transitions are not supported (the paper's theory does not
cover unlabelled events) and raise :class:`~repro.stg.signals.STGError`.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Tuple

from repro.stg.signals import STGError, SignalKind, SignalTransition
from repro.stg.stg import STG


class SpecificationNotFound(STGError, FileNotFoundError):
    """A ``.g`` path does not exist.

    Subclasses both :class:`~repro.stg.signals.STGError` (so STG-level
    error handling catches it) and :class:`FileNotFoundError` (so callers
    written against the old behaviour keep working).  The message names
    the benchmark-corpus entries that can be materialised instead of the
    missing file.
    """

_TRANSITION_RE = re.compile(
    r"^[A-Za-z_][A-Za-z_0-9.\[\]]*[+-](/\d+)?$")
_IMPLICIT_PLACE_RE = re.compile(r"^<([^,<>]+),([^,<>]+)>$")


def parse_g(text: str, name: Optional[str] = None) -> STG:
    """Parse the text of a ``.g`` file into an :class:`~repro.stg.stg.STG`."""
    lines = _logical_lines(text)
    model_name = name or "stg"
    declarations: List[Tuple[SignalKind, List[str]]] = []
    graph_lines: List[List[str]] = []
    marking_tokens: List[str] = []
    initial_values: Dict[str, bool] = {}
    in_graph = False

    for line in lines:
        directive, _, rest = line.partition(" ")
        directive = directive.strip()
        rest = rest.strip()
        if directive in (".model", ".name"):
            model_name = rest or model_name
            in_graph = False
        elif directive == ".inputs":
            declarations.append((SignalKind.INPUT, rest.split()))
            in_graph = False
        elif directive == ".outputs":
            declarations.append((SignalKind.OUTPUT, rest.split()))
            in_graph = False
        elif directive == ".internal":
            declarations.append((SignalKind.INTERNAL, rest.split()))
            in_graph = False
        elif directive == ".dummy":
            raise STGError(".dummy transitions are not supported")
        elif directive == ".graph":
            in_graph = True
        elif directive == ".marking":
            marking_tokens.extend(_parse_marking_tokens(rest))
            in_graph = False
        elif directive == ".initial_values":
            initial_values.update(_parse_initial_values(rest))
            in_graph = False
        elif directive in (".end", ".capacity", ".coords", ".slowenv"):
            in_graph = False
        elif directive.startswith("."):
            raise STGError(f"unsupported directive {directive!r}")
        else:
            if not in_graph:
                raise STGError(f"unexpected line outside .graph: {line!r}")
            graph_lines.append(line.split())

    stg = STG(model_name)
    for kind, names in declarations:
        for signal in names:
            stg.add_signal(signal, kind)

    labels = _build_graph(stg, graph_lines)
    _apply_marking(stg, marking_tokens, labels)
    for signal, value in initial_values.items():
        stg.set_initial_value(signal, value)
    return stg


def read_g_file(path: str) -> STG:
    """Read and parse a ``.g`` file.

    A missing path raises :class:`SpecificationNotFound`, whose message
    lists the named entries of :mod:`repro.corpus` (each can be written
    out with ``corpus.write_g(name, path)``) -- a bare
    ``FileNotFoundError`` gives the user nothing to act on.
    """
    if not os.path.exists(path):
        # Imported lazily: repro.corpus parses its entries through this
        # module, so a top-level import would be circular.
        from repro.corpus import names as corpus_names

        available = ", ".join(corpus_names())
        raise SpecificationNotFound(
            f"no such .g file: {path!r}; known corpus entries (materialise "
            f"one with repro.corpus.write_g(name, path)): {available}")
    with open(path, "r", encoding="utf-8") as handle:
        return parse_g(handle.read())


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _logical_lines(text: str) -> List[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _parse_marking_tokens(rest: str) -> List[str]:
    body = rest.strip()
    if body.startswith("{"):
        body = body[1:]
    if body.endswith("}"):
        body = body[:-1]
    # Implicit places <a+,b-> must stay single tokens.
    tokens = re.findall(r"<[^>]+>(?:=\d+)?|[^\s{}]+", body)
    return [token for token in tokens if token]


def _parse_initial_values(rest: str) -> Dict[str, bool]:
    values: Dict[str, bool] = {}
    for item in rest.split():
        name, _, value = item.partition("=")
        if value not in ("0", "1"):
            raise STGError(f"invalid initial value assignment {item!r}")
        values[name] = value == "1"
    return values


def _build_graph(stg: STG, graph_lines: List[List[str]]
                 ) -> Dict[str, Optional[SignalTransition]]:
    """Declare and wire the ``.graph`` section.

    Each distinct token is classified and parsed once: the returned
    table maps it to its :class:`~repro.stg.signals.SignalTransition`,
    or to ``None`` for a place, and the marking reuses it.
    """
    # First-appearance document order, deduplicated.  Declaration order
    # fixes the net's transition and place lists, which downstream fix
    # the traversal's firing order and the BDD variable order -- a set
    # here would make every run's traversal statistics depend on the
    # interpreter's hash seed, breaking the sweep runner's cross-process
    # byte-identity contract.
    tokens = list(dict.fromkeys(
        token for line in graph_lines for token in line))
    # Declare every transition and every explicit place first.
    labels: Dict[str, Optional[SignalTransition]] = {}
    for token in tokens:
        label = labels[token] = (SignalTransition.parse(token)
                                 if _TRANSITION_RE.match(token) else None)
        if label is not None:
            stg.ensure_transition(label)
    for token in tokens:
        if labels[token] is None:
            stg.add_place(token)
    # Each token's node name: a transition's canonical name (``a+/1``
    # is ``a+``), a place's token itself.
    names = {token: token if label is None else str(label)
             for token, label in labels.items()}
    # Now wire the adjacency lines.
    for line in graph_lines:
        if not line:
            continue
        source = line[0]
        for target in line[1:]:
            _connect_nodes(stg, names[source], labels[source] is not None,
                           names[target], labels[target] is not None)
    return labels


def _connect_nodes(stg: STG, source: str, source_is_transition: bool,
                   target: str, target_is_transition: bool) -> None:
    """Add the arcs of one adjacency, between canonical node names."""
    if source_is_transition and target_is_transition:
        place = STG.implicit_place_name(source, target)
        if not stg.net.has_place(place):
            stg.add_place(place)
        stg.add_arc(source, place)
        stg.add_arc(place, target)
    elif source_is_transition or target_is_transition:
        stg.add_arc(source, target)
    else:
        raise STGError(
            f"arc between two places {source!r} -> {target!r} is not allowed")


def _apply_marking(stg: STG, tokens: List[str],
                   labels: Dict[str, Optional[SignalTransition]]) -> None:
    """Mark the places of ``.marking``; an implicit place's transitions
    are looked up in ``labels`` (the graph's resolved tokens) first."""
    def canonical(token: str) -> str:
        label = labels.get(token)
        return str(label if label is not None
                   else SignalTransition.parse(token))

    for token in tokens:
        name, _, count_text = token.partition("=")
        count = int(count_text) if count_text else 1
        implicit = _IMPLICIT_PLACE_RE.match(name)
        if implicit:
            place = STG.implicit_place_name(canonical(implicit.group(1)),
                                            canonical(implicit.group(2)))
        else:
            place = name
        if not stg.net.has_place(place):
            raise STGError(f"marked place {place!r} does not exist")
        stg.net.set_initial_tokens(place, count)
