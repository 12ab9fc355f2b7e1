"""Repo-specific static analysis (``python -m tools.analysis``).

Multi-pass AST analyzer gating the repo's hand-grown invariants:

* **determinism** (RA001-RA003) -- no unordered iteration into
  order-sensitive sinks, no hash()/id() ordering, no unseeded random;
* **schema contracts** (RA101-RA104) -- to_dict/from_dict round-trips,
  live strip lists, SCHEMA_VERSION in fingerprint material;
* **facade purity** (RA202-RA205) -- verification goes through
  ``repro.api``; serve and delta code stay in their lanes; fabric
  metadata stays out of fingerprints;
* **lint** (RA401-RA405) -- the four rules folded in from the old
  ``tools/lint.py``, and nested functions that call themselves through
  a closure cell left bound (a reference cycle).

Findings support inline suppressions (``# repro: allow[RA001] reason``)
and the committed baseline ``tools/analysis/baseline.json``.
"""

from tools.analysis.cli import AnalysisResult, analyze_paths, main
from tools.analysis.core import RULES, Config, Finding, Rule

__all__ = ["AnalysisResult", "analyze_paths", "main", "RULES", "Config",
           "Finding", "Rule"]
