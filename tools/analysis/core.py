"""Shared infrastructure of the repo-specific static analyzer.

The analyzer is organised as independent *passes* (one module each)
producing :class:`Finding` objects against a :class:`Project` -- the
parsed view of every Python file under the analyzed paths plus the
cross-file context some passes need (test sources, README text).

Everything here is deliberately dependency-free: the analyzer must run
on the same bare interpreter the rest of the tooling runs on.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """One stable, individually toggleable rule.

    ``scope`` is ``"library"`` (findings only in files under the
    configured library prefixes, i.e. ``src/``) or ``"all"`` (every
    analyzed file) -- determinism and contract rules police shipped
    library code, the folded-in lint rules police the whole tree.
    """

    id: str
    name: str
    summary: str
    scope: str = "library"


#: The rule catalogue.  IDs are append-only and never reused: baselines,
#: suppression comments and CI artifacts all refer to them.
RULES: Dict[str, Rule] = {rule.id: rule for rule in (
    # determinism pass (RA0xx)
    Rule("RA001", "unordered-iteration",
         "iteration over a set/frozenset (or other unordered value) "
         "flows into an order-sensitive sink (list building, join, "
         "sum/accumulation, enumerate, hashing material); the result "
         "then depends on PYTHONHASHSEED"),
    Rule("RA002", "hash-ordering",
         "hash() or id() used as an ordering key (sorted/sort/min/max "
         "key=...); the order depends on the interpreter run"),
    Rule("RA003", "unseeded-random",
         "module-level random.* call in library code; use an explicit "
         "random.Random(seed) so workers and machines agree"),
    # schema-contract pass (RA1xx)
    Rule("RA101", "missing-roundtrip",
         "class defines to_dict without from_dict (or vice versa); "
         "every serialised schema must round-trip"),
    Rule("RA102", "roundtrip-fields",
         "dataclass field not covered by its to_dict/from_dict pair"),
    Rule("RA103", "stale-strip-list",
         "volatile-field strip list names a field no analyzed dataclass "
         "defines"),
    Rule("RA104", "fingerprint-schema",
         "fingerprint material hashed without a SCHEMA_VERSION in the "
         "material; schema bumps could no longer invalidate caches"),
    # facade-purity pass (RA2xx; RA201 retired with the checker shims)
    Rule("RA202", "facade-bypass",
         "CLI/runner/worker code reaches verification internals instead "
         "of going through repro.api"),
    Rule("RA203", "serve-facade-bypass",
         "repro.serve code imports or calls verification internals "
         "(engine modules, pipeline/checker classes) instead of the "
         "repro.api facade; the daemon is transport and caching only"),
    Rule("RA204", "delta-verdict-influence",
         "repro.delta code reaches verdict machinery (reports, property "
         "checks, the explicit oracle, synthesis) or pokes private "
         "engine state; delta warm-starts may only seed the traversal "
         "-- verdicts must be byte-identical to a cold run"),
    Rule("RA205", "fabric-stable-leak",
         "fabric scheduling metadata (lease/retry/fault/attempt "
         "identifiers or keys) referenced inside fingerprint or "
         "stable-view material; which holder computed a verdict, after "
         "how many retries and under what fault plan must never reach "
         "cache keys or the byte-identical stable results"),
    # registry-hygiene pass (RA3xx)
    Rule("RA301", "unexercised-registration",
         "name registered with register_check / engine / backend "
         "registries never appears under tests/"),
    Rule("RA302", "undocumented-registration",
         "registered name missing from the README tables"),
    # lint pass (RA4xx) -- the four rules folded in from tools/lint.py,
    # and RA405
    Rule("RA401", "syntax-error", "the file must parse", scope="all"),
    Rule("RA402", "unused-import",
         "module-level import never referenced and not re-exported "
         "(__init__ modules exempt)", scope="all"),
    Rule("RA403", "undefined-export",
         "__all__ names something not defined or imported at module "
         "level", scope="all"),
    Rule("RA404", "duplicate-definition",
         "module-level function/class defined twice", scope="all"),
    Rule("RA405", "recursive-closure",
         "nested function calls itself through its closure cell and "
         "the enclosing function does not rebind the name in a "
         "finally; the cycle keeps everything the closure captures "
         "alive until the cycle collector runs", scope="all"),
    # observability-hygiene pass (RA5xx)
    Rule("RA501", "dynamic-span-name",
         "span/event/metric name is not a string literal; the report "
         "layer aggregates by name, so runtime-minted names fragment "
         "every breakdown (put variable data in keyword attributes)"),
    Rule("RA502", "traced-fingerprint",
         "obs emission inside a fingerprint / stable-view function; "
         "tracing and metrics must never feed cache keys or the "
         "byte-identical stable results"),
)}


@dataclass(frozen=True)
class Finding:
    """One reported rule violation."""

    rule: str
    path: str
    line: int
    message: str

    @property
    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: line numbers shift, (rule, path, message)
        is stable across unrelated edits."""
        return (self.rule, self.path, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path,
                "line": self.line, "message": self.message}


# ----------------------------------------------------------------------
# Suppressions:  # repro: allow[RA001] reason
# ----------------------------------------------------------------------
_SUPPRESSION = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]\s*(.*)")


def suppressions_of(text: str) -> Dict[int, Set[str]]:
    """Map line number -> rule IDs suppressed there.

    An inline comment suppresses its own line; a standalone comment line
    suppresses the next line (so a suppression can sit above the code it
    excuses without fighting line length).
    """
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if not match:
            continue
        rules = {part.strip() for part in match.group(1).split(",")
                 if part.strip()}
        target = lineno + 1 if line.lstrip().startswith("#") else lineno
        suppressed.setdefault(target, set()).update(rules)
    return suppressed


# ----------------------------------------------------------------------
# Files and the project
# ----------------------------------------------------------------------
@dataclass
class SourceFile:
    """One parsed Python file."""

    path: str                      # normalised, forward slashes
    text: str
    tree: Optional[ast.Module]     # None when the file does not parse
    syntax_error: Optional[SyntaxError] = None
    _suppressions: Optional[Dict[int, Set[str]]] = field(
        default=None, repr=False)

    @property
    def suppressions(self) -> Dict[int, Set[str]]:
        if self._suppressions is None:
            self._suppressions = suppressions_of(self.text)
        return self._suppressions

    def suppresses(self, finding: Finding) -> bool:
        return finding.rule in self.suppressions.get(finding.line, ())


@dataclass
class Config:
    """Analyzer configuration (CLI flags and test harness knobs)."""

    #: Path prefixes marking shipped library code; ``"library"``-scope
    #: rules only fire there.
    library_prefixes: Tuple[str, ...] = ("src/",)
    #: Relative paths skipped entirely.  The analyzer's own test fixtures
    #: intentionally contain violations, so they are out by default.
    exclude: Tuple[str, ...] = ("tests/analysis/fixtures",)
    #: Rule-ID prefixes to run (None = all) / to drop.
    select: Optional[Tuple[str, ...]] = None
    ignore: Tuple[str, ...] = ()
    #: Where the registry-hygiene pass looks for exercised/documented
    #: names; None disables the corresponding half of the pass.
    tests_root: Optional[str] = "tests"
    readme_path: Optional[str] = "README.md"

    def is_library(self, path: str) -> bool:
        return any(path.startswith(prefix)
                   for prefix in self.library_prefixes)

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select is not None and not any(
                rule_id.startswith(prefix) for prefix in self.select):
            return False
        return not any(rule_id.startswith(prefix)
                       for prefix in self.ignore)

    def rule_applies(self, rule_id: str, path: str) -> bool:
        if not self.rule_enabled(rule_id):
            return False
        rule = RULES[rule_id]
        return rule.scope == "all" or self.is_library(path)


def normalise(path: str) -> str:
    """Repo-relative forward-slash form when possible (for stable
    baselines and readable reports)."""
    path = path.replace(os.sep, "/")
    cwd = os.getcwd().replace(os.sep, "/") + "/"
    absolute = os.path.abspath(path).replace(os.sep, "/")
    if absolute.startswith(cwd):
        return absolute[len(cwd):]
    return path


def iter_python_files(paths: Sequence[str],
                      config: Config) -> Iterator[str]:
    """Every ``.py`` file under ``paths``, sorted, excludes applied."""
    def excluded(rel: str) -> bool:
        padded = "/" + rel + "/"
        for pattern in config.exclude:
            if rel == pattern or rel.startswith(pattern + "/") \
                    or "/" + pattern + "/" in padded:
                return True
        return False

    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and not excluded(normalise(path)):
                yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs
                             if d != "__pycache__"
                             and not d.startswith("."))
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(root, name)
                if not excluded(normalise(full)):
                    yield full


@dataclass
class Project:
    """The parsed view of one analyzer invocation."""

    files: List[SourceFile]
    config: Config

    @classmethod
    def load(cls, paths: Sequence[str], config: Config) -> "Project":
        files: List[SourceFile] = []
        for path in iter_python_files(paths, config):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            try:
                tree: Optional[ast.Module] = ast.parse(text, filename=path)
                error: Optional[SyntaxError] = None
            except SyntaxError as exc:
                tree, error = None, exc
            files.append(SourceFile(path=normalise(path), text=text,
                                    tree=tree, syntax_error=error))
        return cls(files=files, config=config)

    def library_files(self) -> List[SourceFile]:
        return [f for f in self.files if self.config.is_library(f.path)]

    # ------------------------------------------------------------------
    # Cross-file context for the registry pass
    # ------------------------------------------------------------------
    def corpus_text(self, root: Optional[str]) -> str:
        """Concatenated text of every file under ``root`` (any kind)."""
        if root is None or not os.path.isdir(root):
            return ""
        chunks: List[str] = []
        for directory, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__"
                             and not d.startswith("."))
            for name in sorted(files):
                try:
                    with open(os.path.join(directory, name),
                              encoding="utf-8", errors="ignore") as handle:
                        chunks.append(handle.read())
                except OSError:
                    continue
        return "\n".join(chunks)


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child -> parent for every node (sink rules look one level up)."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents
