"""Serialisation of BDDs to a simple, stable text format.

The format stores the variable order and one line per internal node in a
topological order (children before parents), so loading rebuilds exactly
the same canonical structure::

    bdd-serialized 1
    vars a b c
    roots 2
    node 2 a 0 1
    node 3 b 0 2
    root 3
    root 2

Functions from one manager can be saved together (sharing is preserved);
loading returns the new manager and the root functions in order.  Useful
for caching reachable sets between runs and for debugging.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TextIO, Tuple

from repro.bdd.function import Function
from repro.bdd.manager import BDDError, BDDManager, FALSE_ID, TRUE_ID

FORMAT_HEADER = "bdd-serialized 1"


def dump(functions: Sequence[Function], stream: TextIO) -> None:
    """Serialise functions (sharing one manager) to a text stream."""
    if not functions:
        raise BDDError("nothing to serialise")
    manager = functions[0].manager
    for function in functions:
        if function.manager is not manager:
            raise BDDError("all functions must belong to the same manager")
    stream.write(FORMAT_HEADER + "\n")
    stream.write("vars " + " ".join(manager.variables) + "\n")
    stream.write(f"roots {len(functions)}\n")
    # Collect nodes reachable from every root, then emit children first.
    emitted = {FALSE_ID, TRUE_ID}
    order: List[int] = []

    def visit(node: int) -> None:
        if node in emitted:
            return
        emitted.add(node)
        visit(manager.node_low(node))
        visit(manager.node_high(node))
        order.append(node)

    for function in functions:
        visit(function.node)
    for node in order:
        variable = manager.var_at_level(manager.node_level(node))
        stream.write(f"node {node} {variable} "
                     f"{manager.node_low(node)} {manager.node_high(node)}\n")
    for function in functions:
        stream.write(f"root {function.node}\n")


def load(stream: TextIO,
         manager: BDDManager | None = None) -> Tuple[BDDManager, List[Function]]:
    """Load functions from a stream produced by :func:`dump`.

    A fresh manager with the stored variable order is created unless an
    existing one (already containing all stored variables) is supplied.
    """
    header_line = stream.readline()
    if not header_line:
        raise BDDError("empty stream: not a bdd-serialized file")
    header = header_line.strip()
    if header != FORMAT_HEADER:
        tag, _, version = header.partition(" ")
        if tag == "bdd-serialized":
            raise BDDError(
                f"unsupported bdd-serialized format version {version!r}; "
                f"this build reads {FORMAT_HEADER!r}")
        raise BDDError(
            f"unrecognised header {header!r}: not a bdd-serialized "
            f"stream (expected {FORMAT_HEADER!r})")
    vars_line = stream.readline().split()
    if not vars_line or vars_line[0] != "vars":
        raise BDDError("missing 'vars' line")
    variables = vars_line[1:]
    roots_line = stream.readline().split()
    if len(roots_line) != 2 or roots_line[0] != "roots":
        raise BDDError("missing 'roots' line")
    if manager is None:
        manager = BDDManager(variables)
    else:
        for name in variables:
            if name not in manager.variables:
                manager.add_var(name)
    translation: Dict[int, int] = {FALSE_ID: FALSE_ID, TRUE_ID: TRUE_ID}
    roots: List[Function] = []
    for line in stream:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "node":
            if len(parts) != 5:
                raise BDDError(f"malformed node line: {line!r}")
            try:
                old_id, variable, low, high = (int(parts[1]), parts[2],
                                               int(parts[3]), int(parts[4]))
            except ValueError as exc:
                raise BDDError(
                    f"malformed node line (non-integer id): {line!r}"
                ) from exc
            try:
                new_low = translation[low]
                new_high = translation[high]
            except KeyError as exc:
                raise BDDError(
                    f"node {old_id} references unknown child") from exc
            # Rebuild through ite so the result is correct even when the
            # target manager uses a different variable order.
            variable_node = manager.var(variable).node
            translation[old_id] = manager.ite(variable_node, new_high, new_low)
        elif parts[0] == "root":
            try:
                old_id = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise BDDError(f"malformed root line: {line!r}") from exc
            if old_id not in translation:
                raise BDDError(f"root {old_id} was never defined")
            roots.append(manager._wrap(translation[old_id]))
        else:
            raise BDDError(f"unrecognised line: {line!r}")
    return manager, roots
