"""Every module under ``src/repro`` is reached from an entry point.

The import graph is read from the AST, function-local imports included
(the BDD kernel and most engine modules are imported lazily), and walked
from the entry points: the package itself, ``python -m repro``, the CLI,
the :mod:`repro.api` facade, the sweep runner and the serve daemon.  A
module nothing reaches is either given a caller or deleted; the only
exceptions are listed in :data:`KEPT`, each with its reason.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

ENTRY_POINTS = ("repro", "repro.__main__", "repro.cli", "repro.api",
                "repro.runner", "repro.serve")

KEPT = {
    # Shortest counterexample extraction: failing verdicts are to carry
    # its firing sequences (the ROADMAP's counterexample item).
    "repro.core.witness",
    # The trace-equivalence oracle of the repro.stg.transform tests, also
    # used by examples/csc_resolution.py.
    "repro.sg.traces",
}

#: The files that still import each kept module (without one it goes).
KEPT_USERS = {
    "repro.core.witness": ("tests/core/test_witness.py",),
    "repro.sg.traces": ("tests/stg/test_transform.py",
                        "examples/csc_resolution.py"),
}


def _modules():
    """Dotted module name -> source path, for every module of ``repro``."""
    modules = {}
    root = os.path.join(SRC, "repro")
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            parts = os.path.relpath(path, SRC)[:-len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            modules[".".join(parts)] = path
    return modules


def _imports(path, modules):
    """The ``repro`` modules one source file imports, anywhere in it."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    reached = set()
    for name in names:
        parts = name.split(".")
        # Importing a.b.c runs the packages a and a.b first.
        reached.update(".".join(parts[:end])
                       for end in range(1, len(parts) + 1))
    return reached & set(modules)


def test_every_module_but_the_kept_ones_is_reached():
    modules = _modules()
    assert set(ENTRY_POINTS) <= set(modules)
    assert KEPT <= set(modules)
    reached, stack = set(), list(ENTRY_POINTS)
    while stack:
        module = stack.pop()
        if module not in reached:
            reached.add(module)
            stack.extend(_imports(modules[module], modules))
    assert set(modules) - reached == KEPT


def test_function_local_imports_are_followed():
    # SymbolicImage imports the transfer kernel inside a method only.
    modules = _modules()
    assert "repro.bdd.operators" in _imports(modules["repro.core.image"],
                                             modules)


@pytest.mark.parametrize("module", sorted(KEPT))
def test_every_kept_module_still_has_its_users(module):
    modules = _modules()
    for user in KEPT_USERS[module]:
        assert module in _imports(os.path.join(ROOT, user), modules)
