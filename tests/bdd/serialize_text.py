"""String forms of the :mod:`repro.bdd.serialize` stream functions."""

from __future__ import annotations

import io

from repro.bdd.serialize import dump, load


def dumps(functions) -> str:
    """Serialise to a string."""
    buffer = io.StringIO()
    dump(functions, buffer)
    return buffer.getvalue()


def loads(text: str, manager=None):
    """Load functions from a string."""
    return load(io.StringIO(text), manager)
