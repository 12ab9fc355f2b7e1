"""Command-line driver of the repo-specific static analyzer.

Usage (from the repo root)::

    python -m tools.analysis [paths ...]          # default: src tests tools
    python -m tools.analysis --select RA0         # determinism pass only
    python -m tools.analysis --json report.json   # CI artifact
    python -m tools.analysis --write-baseline     # accept current findings
    python -m tools.analysis --list-rules

Exit status: 0 clean (or everything baselined/suppressed), 1 new
findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from tools.analysis import baseline as baseline_module
from tools.analysis import (
    determinism,
    facade,
    lintpass,
    obspass,
    schema,
)
from tools.analysis.core import RULES, Config, Finding, Project

DEFAULT_PATHS = ("src", "tests", "tools")

#: The passes, in report order.  Each is a module with
#: ``run(project) -> List[Finding]``.
PASSES = (determinism, schema, facade, lintpass, obspass)


@dataclass
class AnalysisResult:
    """Outcome of one analyzer run (also the programmatic API's value)."""

    findings: List[Finding]            # new, reportable findings
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "files_checked": self.files_checked,
            "counts": {
                "new": len(self.findings),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
            },
            "findings": [f.to_dict() for f in self.findings],
            "baselined": [f.to_dict() for f in self.baselined],
        }


def analyze_paths(paths: Sequence[str], config: Optional[Config] = None,
                  baseline_keys: Optional[set] = None) -> AnalysisResult:
    """Run every enabled pass over ``paths`` and classify the findings."""
    config = config or Config()
    project = Project.load(paths, config)
    raw: List[Finding] = []
    for pass_module in PASSES:
        raw.extend(pass_module.run(project))
    raw.sort(key=lambda f: (f.path, f.line, f.rule, f.message))

    by_path = {source.path: source for source in project.files}
    suppressed, active = [], []
    for finding in raw:
        source = by_path.get(finding.path)
        if source is not None and source.suppresses(finding):
            suppressed.append(finding)
        else:
            active.append(finding)
    new, baselined = baseline_module.split(active, baseline_keys or set())
    return AnalysisResult(findings=new, baselined=baselined,
                          suppressed=suppressed,
                          files_checked=len(project.files))


def list_rules() -> str:
    lines = ["rule    name                       scope    summary"]
    for rule in RULES.values():
        lines.append(f"{rule.id}   {rule.name:<26} {rule.scope:<8} "
                     f"{rule.summary}")
    return "\n".join(lines)


def _parse_prefixes(text: Optional[str]):
    if text is None:
        return None
    return tuple(part.strip() for part in text.split(",") if part.strip())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Repo-specific static analysis: determinism, schema "
                    "round-trips, facade purity, lint, "
                    "observability hygiene.")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files/directories to analyze "
                             "(default: src tests tools)")
    parser.add_argument("--select", metavar="PREFIXES",
                        help="comma-separated rule-ID prefixes to run "
                             "(e.g. RA0,RA401)")
    parser.add_argument("--ignore", metavar="PREFIXES",
                        help="comma-separated rule-ID prefixes to skip")
    parser.add_argument("--library", metavar="PREFIXES",
                        help="comma-separated path prefixes treated as "
                             "library code (default: src/); "
                             "library-scope rules only fire there")
    parser.add_argument("--exclude", metavar="PATHS",
                        help="comma-separated paths to skip (default: "
                             "tests/analysis/fixtures; pass '' to "
                             "analyze everything)")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="write a JSON findings report ('-' for "
                             "stdout)")
    parser.add_argument("--baseline",
                        default=baseline_module.DEFAULT_BASELINE,
                        help="baseline file (default: %(default)s)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report baselined findings as new")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept all current findings into the "
                             "baseline file and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    arguments = parser.parse_args(argv)

    if arguments.list_rules:
        print(list_rules())
        return 0

    missing = [path for path in arguments.paths if not os.path.exists(path)]
    if missing:
        print(f"analysis: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    config = Config(select=_parse_prefixes(arguments.select),
                    ignore=_parse_prefixes(arguments.ignore) or ())
    if arguments.library is not None:
        config.library_prefixes = _parse_prefixes(arguments.library)
    if arguments.exclude is not None:
        config.exclude = _parse_prefixes(arguments.exclude)
    try:
        baseline_keys = (set() if arguments.no_baseline
                         else baseline_module.load(arguments.baseline))
    except ValueError as error:
        print(f"analysis: {error}", file=sys.stderr)
        return 2

    result = analyze_paths(arguments.paths, config, baseline_keys)

    if arguments.write_baseline:
        accepted = result.findings + result.baselined
        baseline_module.write(arguments.baseline, accepted)
        print(f"analysis: wrote {len({f.key for f in accepted})} "
              f"entr(ies) to {arguments.baseline}")
        return 0

    for finding in result.findings:
        print(finding.render())
    print(f"analysis: {result.files_checked} files checked, "
          f"{len(result.findings)} finding(s) "
          f"({len(result.baselined)} baselined, "
          f"{len(result.suppressed)} suppressed)")

    if arguments.json_path:
        payload = json.dumps(result.to_json_dict(), indent=2,
                             sort_keys=True) + "\n"
        if arguments.json_path == "-":
            sys.stdout.write(payload)
        else:
            with open(arguments.json_path, "w",
                      encoding="utf-8") as handle:
                handle.write(payload)
    return 0 if result.clean else 1
