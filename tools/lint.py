#!/usr/bin/env python
"""Project linter: ``ruff check`` when available, the ``tools.analysis``
lint pass otherwise.

This is a thin shim kept so ``make lint`` (and muscle memory) work
unchanged.  The four built-in rules that used to live here -- syntax,
unused-import, undefined-export, duplicate-definition -- moved into the
repo's static analyzer as rules RA401-RA404 (see ``python -m
tools.analysis --list-rules``); on dependency-free machines this shim
runs that pass, which also holds RA405 (recursive closures).  The full analyzer (determinism, schema
round-trips, facade purity, observability hygiene) runs as ``make analyze``.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from typing import List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: List[str]) -> int:
    paths = argv or ["src", "tests", "tools"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"lint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    ruff = shutil.which("ruff")
    if ruff:
        return subprocess.call([ruff, "check", *paths])
    if REPO_ROOT not in sys.path:  # run as a script, tools/ is sys.path[0]
        sys.path.insert(0, REPO_ROOT)
    from tools.analysis import Config, analyze_paths

    result = analyze_paths(paths, config=Config(select=("RA4",)))
    for finding in result.findings:
        print(finding.render())
    print(f"lint (tools.analysis): {result.files_checked} files "
          f"checked, {len(result.findings)} finding(s)")
    return 1 if result.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
