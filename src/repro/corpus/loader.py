"""Loader API of the benchmark corpus.

Thin functions over :data:`repro.corpus.registry.REGISTRY`:

* :func:`names` / :func:`entry` -- enumerate and look up entries,
* :func:`load` -- parse an entry's canonical text into an
  :class:`~repro.stg.stg.STG` via :func:`repro.stg.parser.parse_g` (the
  corpus exercises the same code path as an external ``.g`` file),
* :func:`write_g` / :func:`write_all` -- materialise entries as ``.g``
  files on demand.
"""

from __future__ import annotations

import os
from typing import Iterable, List

from repro.corpus.registry import REGISTRY
from repro.stg.parser import parse_g
from repro.stg.stg import STG

#: All registered benchmark names, in registration order.
names = REGISTRY.available
#: Look up one entry; unknown names raise
#: :class:`~repro.corpus.registry.CorpusError` with a did-you-mean
#: suggestion.
entry = REGISTRY.get


def g_text(name: str) -> str:
    """Canonical ``.g`` text of an entry."""
    return entry(name).g_text


def load(name: str) -> STG:
    """Parse an entry into an STG (through :func:`repro.stg.parser.parse_g`)."""
    return parse_g(g_text(name), name=name)


def write_g(name: str, path: str) -> str:
    """Materialise one entry as a ``.g`` file; returns the path written."""
    text = g_text(name)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def write_all(directory: str,
              selection: Iterable[str] | None = None) -> List[str]:
    """Materialise every entry (or a selection) under ``directory``."""
    paths = []
    for name in (list(selection) if selection is not None else names()):
        paths.append(write_g(name, os.path.join(directory, f"{name}.g")))
    return paths
