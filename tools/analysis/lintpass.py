"""Lint pass (RA401-RA405): the four rules folded in from the old
``tools/lint.py`` fallback linter, and one for reference cycles.

* **RA401 syntax-error** -- the file must parse (ruff E999);
* **RA402 unused-import** -- a module-level import never referenced and
  not re-exported via ``__all__`` (ruff F401; ``__init__`` modules are
  exempt: re-exporting is their job);
* **RA403 undefined-export** -- an ``__all__`` entry naming nothing
  defined or imported at module level (ruff F822);
* **RA404 duplicate-definition** -- a module-level function/class
  defined twice (ruff F811);
* **RA405 recursive-closure** -- a nested function that calls itself
  through its closure cell.  The function holds the cell and the cell
  holds the function: a reference cycle that keeps everything the
  closure captures (a whole BDD manager, say) alive until the cycle
  collector runs.  It passes when the enclosing function rebinds the
  name in a ``finally`` (``visit = None``), which breaks the cycle as
  the call ends.

``tools/lint.py`` is now a thin shim over this pass (preferring ``ruff
check`` when installed), so ``make lint`` behaviour is unchanged.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Set, Tuple, Union

from tools.analysis.core import Finding, Project, SourceFile


def collect_used_names(tree: ast.AST) -> Set[str]:
    """Every identifier the module references (including attribute roots
    and names quoted in ``__all__``-style string constants)."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # __all__ entries, typing forward refs
    return used


def module_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """Module-level ``(bound_name, lineno)`` pairs from import statements."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], \
                    node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue  # compiler directives, not bindings to use
            for alias in node.names:
                if alias.name == "*":
                    continue
                yield alias.asname or alias.name, node.lineno


def module_definitions(tree: ast.Module) -> Set[str]:
    """Names bound at module level (defs, classes, assignments, imports)."""
    defined: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for child in ast.walk(target):
                    if isinstance(child, ast.Name):
                        defined.add(child.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            defined.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(name for name, _ in module_imports(
                ast.Module(body=[node], type_ignores=[])))
    return defined


def dunder_all(tree: ast.Module) -> List[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets:
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    return []
                return [entry for entry in value if isinstance(entry, str)]
    return []


FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)
_SCOPES = _DEFINITIONS + (ast.Lambda,)


def scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``scope``'s own body, in source order: nested scopes
    are yielded but not entered."""
    for node in ast.iter_child_nodes(scope):
        yield node
        if not isinstance(node, _SCOPES):
            yield from scope_nodes(node)


def binds_locally(function: FunctionNode, name: str) -> bool:
    """Whether ``name`` is a parameter of ``function`` or bound in its
    own body (so a use of it there is not the enclosing cell)."""
    arguments = function.args
    parameters = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
    parameters += [arg for arg in (arguments.vararg, arguments.kwarg) if arg]
    if any(arg.arg == name for arg in parameters):
        return True
    return any((isinstance(node, ast.Name) and node.id == name
                and not isinstance(node.ctx, ast.Load))
               or (isinstance(node, _DEFINITIONS) and node.name == name)
               for node in scope_nodes(function))


def rebound_in_finally(function: FunctionNode, name: str) -> bool:
    """Whether a ``finally`` of ``function``'s own body assigns
    ``name``."""
    return any(isinstance(target, ast.Name) and target.id == name
               for node in scope_nodes(function)
               if isinstance(node, ast.Try)
               for statement in node.finalbody
               for assign in ast.walk(statement)
               if isinstance(assign, ast.Assign)
               for target in assign.targets)


def recursive_closures(tree: ast.Module) -> Iterator[FunctionNode]:
    """Nested functions that reach themselves through their closure
    cell, the enclosing function leaving the cell bound (RA405)."""
    for outer in ast.walk(tree):
        if not isinstance(outer, _FUNCTIONS):
            continue
        for inner in scope_nodes(outer):
            if (isinstance(inner, _FUNCTIONS)
                    and any(isinstance(node, ast.Name)
                            and node.id == inner.name
                            and isinstance(node.ctx, ast.Load)
                            for node in ast.walk(inner))
                    and not binds_locally(inner, inner.name)
                    and not rebound_in_finally(outer, inner.name)):
                yield inner


def lint_file(source: SourceFile) -> List[Finding]:
    if source.tree is None:
        error = source.syntax_error
        return [Finding(
            rule="RA401", path=source.path,
            line=error.lineno or 1 if error else 1,
            message=f"syntax error: "
                    f"{error.msg if error else 'unparseable'}")]
    tree = source.tree
    findings: List[Finding] = []
    used = collect_used_names(tree)
    exported = set(dunder_all(tree))
    is_init = os.path.basename(source.path) == "__init__.py"

    if not is_init:  # re-exporting is an __init__ module's job
        for name, lineno in module_imports(tree):
            if name.startswith("_"):
                continue
            if name not in used and name not in exported:
                findings.append(Finding(
                    rule="RA402", path=source.path, line=lineno,
                    message=f"{name!r} is imported but never used"))

    defined = module_definitions(tree)
    for entry in dunder_all(tree):
        if entry not in defined:
            findings.append(Finding(
                rule="RA403", path=source.path, line=1,
                message=f"__all__ names {entry!r} which is not defined "
                        f"in the module"))

    seen: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name in seen:
                findings.append(Finding(
                    rule="RA404", path=source.path, line=node.lineno,
                    message=f"{node.name!r} already defined on line "
                            f"{seen[node.name]}"))
            seen[node.name] = node.lineno

    for function in recursive_closures(tree):
        findings.append(Finding(
            rule="RA405", path=source.path, line=function.lineno,
            message=f"nested function {function.name!r} calls itself "
                    f"through its closure cell, a reference cycle; rebind "
                    f"{function.name!r} in a finally of the enclosing "
                    f"function or move it to module level"))
    return findings


def run(project: Project) -> List[Finding]:
    config = project.config
    findings: List[Finding] = []
    for source in project.files:
        findings.extend(f for f in lint_file(source)
                        if config.rule_applies(f.rule, source.path))
    return findings
