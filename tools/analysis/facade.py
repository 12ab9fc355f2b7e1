"""Facade-purity pass (RA202-RA205).

``repro.api`` is the one verification entry point: everything
user-facing (CLI, sweep runner, workers) must verify exclusively through
it so engines, checks and configs stay pluggable.  This pass turns that
convention into findings (RA201, which policed the retired
constructor-style checker shims, was deleted with them; rule IDs are
never reused):

* **RA202** -- front-end code (``cli.py``, ``__main__.py``, anything
  under ``runner/``) imports or calls verification internals
  (``VerificationPipeline``, ``ExplicitVerification``) instead of going
  through ``repro.api``;
* **RA203** -- serve-daemon code (anything under ``serve/``) reaches
  verification machinery at all: importing from the engine modules
  (``repro.core``, ``repro.sg``, ``repro.engines``) or naming the
  internals directly.  The daemon layer is transport, queueing and
  caching only -- it verifies exclusively through the facade (via the
  :func:`repro.serve.state.execute_payload_async` primitive), which
  is what keeps daemon verdicts byte-identical to batch-check runs;
* **RA204** -- incremental-verification code (anything under
  ``repro/delta/``) reaches verdict machinery: importing from
  ``repro.report``, ``repro.api.checks``, ``repro.sg`` (the explicit
  oracle) or ``repro.synthesis``, or assigning to an
  underscore-prefixed attribute of another object (private engine
  state).  The delta layer's entire influence on a run is the traversal
  seed it hands the pipeline through its public seeding attributes --
  that containment is what makes "delta verdicts are byte-identical to
  cold verdicts" an invariant rather than a hope.
* **RA205** -- fabric scheduling metadata inside fingerprint or
  stable-view material.  The lease coordinator stamps *how* a verdict
  was computed (lease holder, retry attempt, fault plan) into
  provenance, and provenance is stripped from stable views; a
  fingerprint or ``stable_dict``-family function that references a
  lease/retry/fault/attempt identifier, dict key or subscript would
  let scheduling history perturb cache keys or the byte-identical
  sweep contract.  Same function detection as RA502 (``fingerprint*``,
  ``stable_dict``, ``stable_json_dict``, ``stable_json``); only
  identifier-position tokens count, so prose in docstrings stays
  legal.
"""

from __future__ import annotations

import ast
from typing import List

from tools.analysis.core import Finding, Project, SourceFile

#: Engine-internal verification entry points front-end code must not
#: touch (the facade threads them through the engine registry).
VERIFICATION_INTERNALS = ("VerificationPipeline", "ExplicitVerification")

#: Front-end modules bound to the facade-only contract.
_FRONTEND_FRAGMENTS = ("repro/cli", "repro/__main__", "repro/runner/")

#: Serve-daemon modules bound to the stricter RA203 contract: no
#: verification machinery at all, not even the engine registry.
_SERVE_FRAGMENTS = ("repro/serve/",)

#: Module prefixes the serve layer must not import from.
_SERVE_FORBIDDEN_MODULES = ("repro.core", "repro.sg", "repro.engines")

#: Incremental-verification modules bound to the RA204 contract: they
#: may only seed the traversal, never touch verdict machinery.
_DELTA_FRAGMENTS = ("repro/delta/",)

#: Module prefixes the delta layer must not import from: everything
#: that produces or represents verdicts.  (The traversal/encoding/BDD
#: layers are fair game -- seeds are made of those.)
_DELTA_FORBIDDEN_MODULES = ("repro.report", "repro.api.checks",
                            "repro.sg", "repro.synthesis")


#: Functions whose bodies are fingerprint / stable-view material (the
#: same set the RA502 obs pass polices).
_STABLE_VIEW_NAMES = ("stable_dict", "stable_json_dict", "stable_json")
_STABLE_VIEW_FRAGMENT = "fingerprint"

#: Snake-case tokens that mark an identifier (or string key) as fabric
#: scheduling metadata.  Token-wise matching, not substring: ``holder``
#: flags, ``placeholder`` does not.
_FABRIC_TOKENS = frozenset((
    "lease", "leases", "retry", "retries", "fault", "faults",
    "attempt", "attempts", "holder", "backoff"))


def _is_frontend(path: str) -> bool:
    return any(fragment in path for fragment in _FRONTEND_FRAGMENTS)


def _is_serve(path: str) -> bool:
    return any(fragment in path for fragment in _SERVE_FRAGMENTS)


def _is_delta(path: str) -> bool:
    return any(fragment in path for fragment in _DELTA_FRAGMENTS)


def _serve_forbidden_module(module: str) -> bool:
    return any(module == prefix or module.startswith(prefix + ".")
               for prefix in _SERVE_FORBIDDEN_MODULES)


def _delta_forbidden_module(module: str) -> bool:
    return any(module == prefix or module.startswith(prefix + ".")
               for prefix in _DELTA_FORBIDDEN_MODULES)


def _is_stable_view_function(name: str) -> bool:
    return name in _STABLE_VIEW_NAMES or _STABLE_VIEW_FRAGMENT in name


def _fabric_token_of(identifier: str) -> str:
    """The first fabric token in a snake_case identifier, or ``""``."""
    for token in identifier.lower().split("_"):
        if token in _FABRIC_TOKENS:
            return token
    return ""


def _fabric_identifiers(node: ast.AST):
    """``(identifier, lineno)`` pairs of fabric-flavoured references.

    Only identifier positions count -- names, attributes, parameters,
    keyword arguments, string subscripts and string dict keys.  Bare
    string constants (docstrings, messages) never flag.
    """
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            candidates = [(inner.id, inner.lineno)]
        elif isinstance(inner, ast.Attribute):
            candidates = [(inner.attr, inner.lineno)]
        elif isinstance(inner, ast.arg):
            candidates = [(inner.arg, inner.lineno)]
        elif isinstance(inner, ast.keyword) and inner.arg is not None:
            candidates = [(inner.arg, inner.value.lineno)]
        elif isinstance(inner, ast.Subscript) \
                and isinstance(inner.slice, ast.Constant) \
                and isinstance(inner.slice.value, str):
            candidates = [(inner.slice.value, inner.lineno)]
        elif isinstance(inner, ast.Dict):
            candidates = [(key.value, key.lineno) for key in inner.keys
                          if isinstance(key, ast.Constant)
                          and isinstance(key.value, str)]
        else:
            continue
        for identifier, lineno in candidates:
            if _fabric_token_of(identifier):
                yield identifier, lineno


def _check_stable_views(source: SourceFile,
                        findings: List[Finding]) -> None:
    """RA205: fingerprint / stable-view functions never reference
    fabric scheduling metadata."""
    assert source.tree is not None
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_stable_view_function(node.name):
            continue
        reported = set()
        for identifier, lineno in _fabric_identifiers(node):
            # One finding per line: a leaking assignment often carries
            # several flagged identifiers (key, attribute, receiver).
            if lineno in reported:
                continue
            reported.add(lineno)
            findings.append(Finding(
                rule="RA205", path=source.path, line=lineno,
                message=f"{node.name}() references fabric scheduling "
                        f"metadata {identifier!r}; lease/retry/fault "
                        f"provenance must never reach fingerprints or "
                        f"stable views"))


def _check_file(source: SourceFile, findings: List[Finding]) -> None:
    assert source.tree is not None
    frontend = _is_frontend(source.path)
    serve = _is_serve(source.path)
    if _is_delta(source.path):
        _check_delta_file(source, findings)
    _check_stable_views(source, findings)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if serve and name in VERIFICATION_INTERNALS:
                findings.append(Finding(
                    rule="RA203", path=source.path, line=node.lineno,
                    message=f"serve-daemon code calls {name} directly; "
                            f"the daemon verifies only through the "
                            f"repro.api facade (via the worker "
                            f"primitive)"))
            elif frontend and name in VERIFICATION_INTERNALS:
                findings.append(Finding(
                    rule="RA202", path=source.path, line=node.lineno,
                    message=f"front-end code calls {name} directly; "
                            f"go through the repro.api facade"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and serve:
            _check_serve_import(source, node, findings)
        elif isinstance(node, ast.ImportFrom) and frontend:
            module = node.module or ""
            if module.startswith("repro.api"):
                continue
            for alias in node.names:
                if alias.name in VERIFICATION_INTERNALS:
                    findings.append(Finding(
                        rule="RA202", path=source.path, line=node.lineno,
                        message=f"front-end code imports {alias.name} "
                                f"from {module}; verification goes "
                                f"through repro.api only"))


def _check_serve_import(source: SourceFile, node, findings:
                        List[Finding]) -> None:
    """RA203 on imports: serve code must not touch engine modules."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if _serve_forbidden_module(alias.name):
                findings.append(Finding(
                    rule="RA203", path=source.path, line=node.lineno,
                    message=f"serve-daemon code imports {alias.name}; "
                            f"the serve layer is transport and caching "
                            f"only -- verification goes through "
                            f"repro.api"))
        return
    module = node.module or ""
    if _serve_forbidden_module(module):
        findings.append(Finding(
            rule="RA203", path=source.path, line=node.lineno,
            message=f"serve-daemon code imports from {module}; the "
                    f"serve layer is transport and caching only -- "
                    f"verification goes through repro.api"))
        return
    for alias in node.names:
        if alias.name in VERIFICATION_INTERNALS:
            findings.append(Finding(
                rule="RA203", path=source.path, line=node.lineno,
                message=f"serve-daemon code imports {alias.name} from "
                        f"{module}; verification goes through "
                        f"repro.api only"))


def _check_delta_file(source: SourceFile,
                      findings: List[Finding]) -> None:
    """RA204: delta code seeds traversals; it never touches verdicts.

    Two concrete teeth: no imports from the verdict-producing modules,
    and no assignment to an underscore-prefixed attribute of another
    object (``self``/``cls`` excepted -- a module's own private state
    is its own business).  Writing the pipeline's *public* seeding
    attributes (``seed_reached`` and friends) is exactly the sanctioned
    channel, so it passes by construction.
    """
    assert source.tree is not None
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _delta_forbidden_module(alias.name):
                    findings.append(_delta_import_finding(
                        source, node, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if _delta_forbidden_module(module):
                findings.append(_delta_import_finding(
                    source, node, module))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr.startswith("_")
                        and not (isinstance(target.value, ast.Name)
                                 and target.value.id in ("self", "cls"))):
                    findings.append(Finding(
                        rule="RA204", path=source.path, line=node.lineno,
                        message=f"delta code assigns the private "
                                f"attribute .{target.attr} of another "
                                f"object; delta warm-starts influence a "
                                f"run only through the pipeline's "
                                f"public seeding attributes"))


def _delta_import_finding(source: SourceFile, node,
                          module: str) -> Finding:
    return Finding(
        rule="RA204", path=source.path, line=node.lineno,
        message=f"delta code imports from {module}; the delta layer "
                f"seeds traversals only -- verdict machinery (reports, "
                f"checks, the explicit oracle, synthesis) is off "
                f"limits")


def run(project: Project) -> List[Finding]:
    config = project.config
    findings: List[Finding] = []
    for source in project.files:
        if source.tree is None or not config.is_library(source.path):
            continue
        _check_file(source, findings)
    return [f for f in findings if config.rule_applies(f.rule, f.path)]
