"""Shared definitions for the Table 1 reproduction.

The paper's Table 1 reports, for a set of scalable STG benchmarks, the
number of places / signals / states, the peak and final BDD sizes of the
``Reached`` set and the CPU seconds of the three verification phases
(T+C: traversal + consistency, NI-p: non-input persistency (plus the
commutativity / fake-conflict analysis), CSC) and their total.

The original benchmark files are not available, so the rows are drawn from
the scalable families registered in the benchmark corpus
(:data:`repro.corpus.FAMILIES`, backed by :mod:`repro.stg.generators`;
see DESIGN.md §2 for the substitution argument):

* ``muller_pipeline``  -- marked-graph pipeline (the paper's Muller pipeline),
* ``master_read``      -- fork/join marked graph (master-read interface family),
* ``parallel_handshakes`` -- maximal concurrency stress case,
* ``mutex``            -- mutual-exclusion array (Figure 1 generalised),
  checked with its arbitration place declared.

Each row is produced by :func:`run_table1_row`, which runs the default
checks of :func:`repro.api.verify` and returns the Table 1 columns.  The instances and their expected verdicts come from
the corpus registry, the single source of truth the ``batch-check`` CLI
mode and the cross-engine tests validate against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import corpus
from repro.api import EngineConfig, verify
from repro.report import ImplementabilityReport
from repro.stg.stg import STG

# (family name, scale parameters) -- the sweep reproduced in Table 1.
TABLE1_ROWS: List[Tuple[str, Sequence[int]]] = [
    ("muller_pipeline", (8, 12, 16, 20)),
    ("master_read", (4, 6, 8)),
    ("parallel_handshakes", (6, 8, 10)),
    ("mutex", (4, 8, 12)),
]

# Smaller sweep used by the pytest-benchmark targets (keeps wall time low).
BENCHMARK_ROWS: List[Tuple[str, Sequence[int]]] = [
    ("muller_pipeline", (8, 12, 16)),
    ("master_read", (4, 6)),
    ("parallel_handshakes", (6, 8)),
    ("mutex", (4, 8)),
]


def build_instance(family: str, scale: int) -> Tuple[STG, List[str]]:
    """Instantiate one benchmark row and its arbitration places."""
    try:
        return corpus.family(family).instantiate(scale)
    except KeyError as error:
        # args[0], not str(error): KeyError.__str__ reprs its argument.
        raise ValueError(error.args[0]) from None


def run_table1_row(family: str, scale: int,
                   ordering: str = "force",
                   traversal_strategy: str = "chained") -> Dict[str, object]:
    """Run the full symbolic check for one row and return its columns."""
    stg, arbitration = build_instance(family, scale)
    report = verify(stg, EngineConfig(
        arbitration_places=tuple(arbitration), ordering=ordering,
        traversal_strategy=traversal_strategy))
    return report_to_row(family, scale, report)


def report_to_row(family: str, scale: int,
                  report: ImplementabilityReport) -> Dict[str, object]:
    """Convert a report to a Table 1 row dictionary."""
    return {
        "example": f"{family}({scale})",
        "places": report.num_places,
        "signals": report.num_signals,
        "states": report.num_states,
        "bdd_peak": report.bdd_peak_nodes,
        "bdd_final": report.bdd_final_nodes,
        "t_plus_c": report.timings.get("T+C", 0.0),
        "ni_p": report.timings.get("NI-p", 0.0),
        "csc": report.timings.get("CSC", 0.0),
        "total": report.total_time,
        "consistent": report.consistent,
        "persistent": report.output_persistent,
        "csc_holds": report.csc,
        "classification": str(report.classification),
    }


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render rows in the layout of the paper's Table 1."""
    header = (f"{'Example':<24} {'places':>7} {'signals':>8} {'states':>12} "
              f"{'BDD peak':>9} {'BDD fin':>8} "
              f"{'T+C':>8} {'NI-p':>8} {'CSC':>8} {'Total':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['example']:<24} {row['places']:>7} {row['signals']:>8} "
            f"{row['states']:>12} {row['bdd_peak']:>9} {row['bdd_final']:>8} "
            f"{row['t_plus_c']:>8.3f} {row['ni_p']:>8.3f} {row['csc']:>8.3f} "
            f"{row['total']:>8.3f}")
    return "\n".join(lines)


def expected_verdicts(family: str) -> Dict[str, Optional[bool]]:
    """The implementability verdicts every row of a family must produce.

    Drawn from the corpus registry (key ``csc`` is renamed to
    ``csc_holds`` to match the Table 1 row layout).
    """
    expected = dict(corpus.family(family).expected)
    expected["csc_holds"] = expected.pop("csc")
    return expected
