"""Observability-hygiene pass (RA501-RA502).

PR 7 added :mod:`repro.obs` -- tracing spans, events and metrics
instrumented through the verification stack.  Two conventions keep that
subsystem sound, and this pass turns them into findings:

* **RA501** -- span/event/metric *names must be string literals* at the
  emission site (``obs.span("traversal")``, never
  ``obs.span(f"check-{name}")``).  The report layer aggregates by name
  (:func:`repro.obs.report.stage_breakdown`), so a name minted at
  runtime fragments every breakdown table and makes cross-run merges
  meaningless; variable data belongs in the keyword attributes
  (``obs.span("check", check=name)``).
* **RA502** -- *no emission inside fingerprint material*.  Trace and
  metric calls inside a function that computes fingerprints or the
  stable result view (``fingerprint*``, ``stable_dict``,
  ``stable_json_dict``) could let observability perturb cache keys or
  the byte-identical sweep contract; the whole subsystem is built on
  the promise that tracing never changes a verdict or a key.

The :mod:`repro.obs` package itself is exempt from RA501: the tracer's
internals forward caller-supplied names through variables by design
(the literal-name contract binds *emission sites*, not the substrate).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from tools.analysis.core import Finding, Project, SourceFile

#: Emission methods whose first argument is the aggregation name.
_SPAN_METHODS = ("span", "timed", "event")
#: Metric factory/lookup methods on a registry; same literal-name rule.
_METRIC_METHODS = ("counter", "gauge", "histogram")

#: Receivers recognised as the tracing surface: ``obs.span(...)``,
#: ``tracer.event(...)``, ``self.tracer.span(...)``.
_TRACER_RECEIVERS = ("obs", "tracer")
#: Receivers recognised as the metrics surface: ``metrics.counter(...)``,
#: ``self.metrics.gauge(...)``, ``registry.histogram(...)``.
_METRIC_RECEIVERS = ("metrics", "registry")

#: The substrate itself forwards names through variables by design.
_SUBSTRATE_FRAGMENT = "repro/obs/"

#: Functions whose bodies are fingerprint / stable-view material.
_FINGERPRINT_NAMES = ("stable_dict", "stable_json_dict", "stable_json")
_FINGERPRINT_FRAGMENT = "fingerprint"


def _receiver_name(func: ast.expr) -> Optional[str]:
    """The base identifier of an attribute call's receiver chain."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return _receiver_name(func.value)
    return None


def _obs_imports(tree: ast.Module) -> Set[str]:
    """Names bound by ``from repro.obs import span, event, ...``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "repro.obs"
                or node.module.startswith("repro.obs.")):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _emission_kind(node: ast.Call, imported: Set[str]) -> Optional[str]:
    """``"span"``/``"event"``/a metric method when the call is an obs
    emission site, else None."""
    func = node.func
    if isinstance(func, ast.Attribute):
        receiver = _receiver_name(func.value)
        if func.attr in _SPAN_METHODS and receiver is not None and any(
                part in _TRACER_RECEIVERS
                for part in (receiver, receiver.lstrip("_"))):
            return func.attr
        if func.attr in _METRIC_METHODS and receiver is not None and any(
                fragment in receiver.lower()
                for fragment in _METRIC_RECEIVERS):
            return func.attr
        return None
    if isinstance(func, ast.Name) and func.id in imported \
            and func.id in _SPAN_METHODS + _METRIC_METHODS:
        return func.id
    return None


def _literal_name(node: ast.Call) -> bool:
    """True when the emission's name argument is a string literal."""
    if not node.args:
        # No positional name (e.g. a keyword form) -- nothing dynamic.
        return True
    first = node.args[0]
    return isinstance(first, ast.Constant) and isinstance(first.value, str)


def _is_fingerprint_function(name: str) -> bool:
    return name in _FINGERPRINT_NAMES or _FINGERPRINT_FRAGMENT in name


def _check_file(source: SourceFile, findings: List[Finding]) -> None:
    assert source.tree is not None
    substrate = _SUBSTRATE_FRAGMENT in source.path
    imported = _obs_imports(source.tree)

    # RA501: every emission site names its span/event/metric literally.
    if not substrate:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = _emission_kind(node, imported)
            if kind is not None and not _literal_name(node):
                findings.append(Finding(
                    rule="RA501", path=source.path, line=node.lineno,
                    message=f"{kind} name must be a string literal "
                            f"(aggregation is by name; put variable "
                            f"data in keyword attributes)"))

    # RA502: no emission inside fingerprint / stable-view functions.
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_fingerprint_function(node.name):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) \
                    and _emission_kind(inner, imported) is not None:
                findings.append(Finding(
                    rule="RA502", path=source.path, line=inner.lineno,
                    message=f"obs emission inside {node.name}(); "
                            f"tracing and metrics must never feed "
                            f"fingerprints or the stable result view"))


def run(project: Project) -> List[Finding]:
    config = project.config
    findings: List[Finding] = []
    for source in project.files:
        if source.tree is None or not config.is_library(source.path):
            continue
        _check_file(source, findings)
    return [f for f in findings if config.rule_applies(f.rule, f.path)]
