"""Every module under ``src/repro`` is reached from an entry point, and
every public name in it has a production user.

The import graph is read from the AST, function-local imports included
(the BDD kernel and most engine modules are imported lazily), and walked
from the entry points: the package itself, ``python -m repro``, the CLI,
the :mod:`repro.api` facade, the sweep runner and the serve daemon.  A
module nothing reaches is either given a caller or deleted; the only
exceptions are listed in :data:`KEPT`, each with its reason.

The same AST resolves every public module-level function and class to
the production code that uses it (:data:`PRODUCTION`).  A name only
tests use is deleted, or moved under ``tests/`` when it is a test
helper; the only exceptions are listed in :data:`KEPT_NAMES`.

Public methods and properties of the classes under ``src/repro`` get
the same rule by name: one is used when some production file reaches
it as an attribute (``x.name``) or names it in a string literal
(``getattr`` and the fixed tables).  Receivers are not typed, so any
attribute of that name counts; the exceptions are listed in
:data:`KEPT_METHODS`.

A wrapper -- a method whose body, besides its docstring and imports, is
one call of a module function of its own name -- is not a user of that
function, and its call is not a use of its own name; otherwise each
would shield the other.  The function counts as used through the
wrapper only when the wrapper itself is used.
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

#: The trees whose uses of a name count (tests do not).
PRODUCTION = ("src", "tools", "benchmarks", "examples", "perfbench")

#: Public names without a production user: ``(reason, users)``, where
#: the users are the files that still use the name (without one it goes).
KEPT_NAMES = {
    "repro.petri.analysis.check_transition_persistency": (
        "explicit oracle of the symbolic transition-persistency check",
        ("tests/core/test_transition_persistency_oracle.py",)),
    "repro.sg.csc.check_csc_by_regions": (
        "region-based oracle of the explicit CSC check",
        ("tests/sg/test_properties_explicit.py",)),
    "repro.corpus.loader.load": (
        "README documents corpus.load",
        ("tests/corpus/test_registry_and_loader.py",)),
    "repro.corpus.loader.write_all": (
        "README documents corpus.write_all",
        ("tests/corpus/test_registry_and_loader.py",)),
    "repro.stg.writer.write_g": (
        "the file writer beside repro.stg.read_g_file in repro.stg",
        ("tests/stg/test_parser_writer.py", "tests/test_cli.py")),
}


#: Public methods and properties without a production user:
#: ``(reason, users)``, as in :data:`KEPT_NAMES`.
KEPT_METHODS = {
    "repro.bdd.manager.BDDManager.true": (
        "the constant TRUE beside false; the kernel tests build from it",
        ("tests/bdd/test_manager.py", "tests/bdd/test_analysis.py")),
    "repro.fabric.leases.LeaseStore.active_leases": (
        "the read view of the replayed lease table the fabric tests check",
        ("tests/fabric/test_leases.py", "tests/fabric/test_coordinator.py",
         "tests/utils/test_journal.py")),
    "repro.obs.sinks.InMemorySink.spans": (
        "the span view of the in-memory sink, beside its events()",
        ("tests/obs/test_trace.py", "tests/obs/test_instrumentation.py")),
    "repro.petri.analysis.TransitionPersistencyResult.conflicting_pairs": (
        "the pairs of the explicit transition-persistency oracle",
        ("tests/core/test_transition_persistency_oracle.py",)),
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


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _forwarding_calls(tree):
    """The wrappers of one file: ``{id(node): (class, method)}``.

    ``node`` is what names the wrapped function in the wrapper's one
    call: the attribute of ``module.name(...)``, or the import alias
    of a ``from module import name`` in the method before ``name(...)``.
    """
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
    calls = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            body = [statement for statement in method.body
                    if not isinstance(statement, (ast.Import,
                                                  ast.ImportFrom))
                    and not (isinstance(statement, ast.Expr)
                             and isinstance(statement.value, ast.Constant))]
            if (len(body) != 1
                    or not isinstance(body[0], (ast.Return, ast.Expr))
                    or not isinstance(body[0].value, ast.Call)):
                continue
            func, owner = body[0].value.func, (cls.name, method.name)
            if (isinstance(func, ast.Attribute) and func.attr == method.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id in bound):
                calls[id(func)] = owner
            elif isinstance(func, ast.Name) and func.id == method.name:
                calls.update(
                    (id(alias), owner) for statement in method.body
                    if isinstance(statement, ast.ImportFrom)
                    for alias in statement.names
                    if (alias.asname or alias.name) == method.name)
    return calls


def _imports(path, modules):
    """The ``repro`` modules one source file imports, anywhere in it."""
    tree = _parse(path)
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


def _public_names(modules):
    """Every public module-level function and class, as a dotted name."""
    names = set()
    for module, path in modules.items():
        if module in KEPT:
            continue
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                names.add(f"{module}.{node.name}")
    return names


def _reexports(modules):
    """``package.name`` -> imported ``module.name``, for package inits."""
    table = {}
    for module, path in modules.items():
        if path.endswith("__init__.py"):
            for node in _parse(path).body:
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        table[f"{module}.{alias.asname or alias.name}"] = \
                            f"{node.module}.{alias.name}"
    return table


def _resolve(name, reexports):
    while name in reexports:
        name = reexports[name]
    return name


def _name_uses(path, modules, reexports, module=None, wrapped=None):
    """The dotted ``repro`` names one file uses.

    ``from m import n`` and attribute chains through ``import m`` are
    resolved through package re-exports.  A module-level import in a
    package ``__init__`` is a re-export, not a use; a function-local one
    is.  ``module`` is the file's own dotted name: a bare name in it
    uses the module's own definition (a definition naming itself does
    not count).  A wrapper's call of the function it wraps is no use;
    ``wrapped``, when given, collects ``{wrapper: function}`` instead.
    """
    tree = _parse(path)
    reexporting = set(map(id, tree.body)) if path.endswith(
        "__init__.py") else set()
    forwarding = _forwarding_calls(tree)
    wrapped = {} if wrapped is None else wrapped

    def use(name, node):
        if id(node) in forwarding:
            cls, method = forwarding[id(node)]
            wrapped[f"{module}.{cls}.{method}"] = _resolve(name, reexports)
        else:
            uses.add(_resolve(name, reexports))

    aliases, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if name in modules:
                    aliases[alias.asname or alias.name] = name
                elif id(node) not in reexporting:
                    use(name, alias)
    for top in ast.walk(tree):
        if not isinstance(top, ast.Attribute):
            continue
        chain, node = [], top
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            owner = aliases[node.id]
            for attr in reversed(chain):
                if f"{owner}.{attr}" not in modules:
                    use(f"{owner}.{attr}", top)
                    break
                owner = f"{owner}.{attr}"
    if module is not None:
        for statement in tree.body:
            own = getattr(statement, "name", None)
            uses.update(f"{module}.{node.id}" for node in ast.walk(statement)
                        if isinstance(node, ast.Name) and node.id != own)
    return uses


def _production_uses(modules, reexports):
    files = {path: module for module, path in modules.items()}
    for top in PRODUCTION[1:]:
        for directory, _, names in os.walk(os.path.join(ROOT, top)):
            files.update((os.path.join(directory, name), None)
                         for name in names if name.endswith(".py"))
    uses, wrapped = set(), {}
    for path, module in files.items():
        uses |= _name_uses(path, modules, reexports, module, wrapped)
    # A used wrapper uses the function it wraps.
    reached = _production_attributes()
    uses.update(function for method, function in wrapped.items()
                if method.rsplit(".", 1)[1] in reached)
    return uses


def test_every_public_name_but_the_kept_ones_has_a_production_user():
    modules = _modules()
    names = _public_names(modules)
    assert set(KEPT_NAMES) <= names
    unused = names - _production_uses(modules, _reexports(modules))
    assert unused == set(KEPT_NAMES)


def test_names_resolve_through_reexports_and_local_imports():
    # repro.cache.bind_pipeline reaches apply_base through a
    # function-local import; the package's own module-level imports of
    # bddstore are re-exports, not uses.
    modules = _modules()
    reexports = _reexports(modules)
    init = modules["repro.cache"]
    uses = _name_uses(init, modules, reexports, "repro.cache")
    assert "repro.delta.warmstart.apply_base" in uses
    assert "repro.cache.bddstore.BDDStoreWarning" not in uses
    assert _resolve("repro.cache.BDDStore", reexports) == \
        "repro.cache.bddstore.BDDStore"


@pytest.fixture
def wrapper_package(tmp_path):
    """``fixture.ops`` with two functions, ``fixture.thing`` wrapping
    both (one through a module alias, one through a function-local
    ``from`` import) and ``fixture.other`` calling one in a method that
    does more than forward."""
    package = tmp_path / "fixture"
    package.mkdir()
    files = {
        "fixture.ops": "def twist(x):\n    return x\n\n\n"
                       "def bend(x):\n    return x\n",
        "fixture.thing": "from fixture import ops\n\n\n"
                         "class Thing:\n"
                         "    def twist(self):\n"
                         "        \"\"\"Forward to ops.twist.\"\"\"\n"
                         "        return ops.twist(self)\n\n"
                         "    def bend(self):\n"
                         "        from fixture.ops import bend\n\n"
                         "        return bend(self)\n",
        "fixture.other": "from fixture import ops\n\n\n"
                         "class Other:\n"
                         "    def twist(self):\n"
                         "        value = ops.twist(self)\n"
                         "        return value\n",
    }
    modules = {"fixture": str(package / "__init__.py")}
    for module, source in files.items():
        path = package / (module.split(".")[1] + ".py")
        path.write_text(source)
        modules[module] = str(path)
    return modules


def test_a_wrapper_pair_is_flagged(wrapper_package):
    # Neither the wrapped functions nor the wrapper names are reached:
    # the gate reports all four unless something else uses them.
    path = wrapper_package["fixture.thing"]
    uses = _name_uses(path, wrapper_package, {}, "fixture.thing")
    assert not {"fixture.ops.twist", "fixture.ops.bend"} & uses
    assert not {"twist", "bend"} & _attributes(path)


def test_a_used_wrapper_uses_the_function_it_wraps(wrapper_package):
    wrapped = {}
    _name_uses(wrapper_package["fixture.thing"], wrapper_package, {},
               "fixture.thing", wrapped)
    assert wrapped == {"fixture.thing.Thing.twist": "fixture.ops.twist",
                       "fixture.thing.Thing.bend": "fixture.ops.bend"}
    # A method that does more than forward is an ordinary user.
    path = wrapper_package["fixture.other"]
    assert "fixture.ops.twist" in _name_uses(path, wrapper_package, {},
                                             "fixture.other")
    assert "twist" in _attributes(path)


@pytest.mark.parametrize("name", sorted(KEPT_NAMES))
def test_every_kept_name_has_a_reason_and_its_users(name):
    reason, users = KEPT_NAMES[name]
    assert reason and users
    modules = _modules()
    reexports = _reexports(modules)
    for user in users:
        assert name in _name_uses(os.path.join(ROOT, user), modules,
                                  reexports)


def _public_methods(modules):
    """Every public method and property of a module-level class, as a
    dotted ``module.Class.name``."""
    names = set()
    for module, path in modules.items():
        if module in KEPT:
            continue
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                names.update(
                    f"{module}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and not item.name.startswith("_"))
    return names


def _attributes(path):
    """Every attribute name one file reaches and every string literal
    it holds (a wrapper's call of the function it wraps excluded)."""
    tree = _parse(path)
    forwarding = _forwarding_calls(tree)
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if id(node) not in forwarding:
                reached.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reached.add(node.value)
    return reached


def _production_attributes():
    reached = set()
    for top in PRODUCTION:
        for directory, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith(".py"):
                    reached |= _attributes(os.path.join(directory, name))
    return reached


def test_every_public_method_but_the_kept_ones_has_a_production_user():
    methods = _public_methods(_modules())
    assert set(KEPT_METHODS) <= methods
    reached = _production_attributes()
    unused = {method for method in methods
              if method.rsplit(".", 1)[1] not in reached}
    assert unused == set(KEPT_METHODS)


def test_methods_include_properties_and_skip_private_ones():
    methods = _public_methods(_modules())
    assert "repro.core.encoding.SymbolicEncoding.enabled" in methods
    assert "repro.core.encoding.SymbolicEncoding.all_variables" in methods
    assert "repro.core.encoding.SymbolicEncoding._compile" not in methods


@pytest.mark.parametrize("method", sorted(KEPT_METHODS))
def test_every_kept_method_has_a_reason_and_its_users(method):
    reason, users = KEPT_METHODS[method]
    assert reason and users
    for user in users:
        assert method.rsplit(".", 1)[1] in _attributes(
            os.path.join(ROOT, user))
