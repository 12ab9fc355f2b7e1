"""Compare two result sets of the benchmark, workload by workload.

A result set is a directory holding one ``<workload>.jsonl`` file per
workload, each line the JSON result line of one run (the last line the
benchmark prints).  For every workload in both sets and every metric,
one row gives each side's median and quartiles, the change of the
medians, and the metric's bound from ``BENCHMARK.json``.  A metric is
``unresolved`` when either side's quartile spread, as a share of its
median, is wider than the bound; otherwise it is ``regressed`` when the
new median is worse by more than the bound, ``better`` when it improved
by more, and ``same`` in between.  Per-layer metrics have no bound and
only show the change.

Exit status: 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Tuple


def load_set(directory: str) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".jsonl"):
            with open(os.path.join(directory, filename),
                      encoding="utf-8") as handle:
                runs[filename[:-len(".jsonl")]] = [
                    json.loads(line) for line in handle if line.strip()]
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(q1: float, median: float, q3: float) -> float:
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric: dict, old, new) -> str:
    bound = metric.get("bound")
    if bound is None:
        return "-"
    if spread(*old) > bound or spread(*new) > bound:
        return "unresolved"
    change = (new[1] - old[1]) / abs(old[1]) if old[1] else 0.0
    worse = change if metric["better"] == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "better"
    return "same"


def main(spec: dict, old_dir: str, new_dir: str) -> int:
    old_set, new_set = load_set(old_dir), load_set(new_dir)
    metrics = spec["end_to_end"] + spec["per_layer"]
    regressed = False
    print(f"{'workload':16s} {'metric':34s} {'old median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s} {'bound':>6s} verdict")
    for workload in sorted(set(old_set) & set(new_set)):
        for metric in metrics:
            name = metric["name"]
            old_values = [run["metrics"][name]["value"]
                          for run in old_set[workload]
                          if name in run["metrics"]]
            new_values = [run["metrics"][name]["value"]
                          for run in new_set[workload]
                          if name in run["metrics"]]
            if not old_values or not new_values:
                continue
            old, new = quartiles(old_values), quartiles(new_values)
            change = (100.0 * (new[1] - old[1]) / abs(old[1])
                      if old[1] else 0.0)
            result = verdict(metric, old, new)
            regressed |= result == "regressed"
            bound = metric.get("bound")
            print(f"{workload:16s} {name:34s} "
                  f"{_cell(old)} {_cell(new)} {change:+7.1f}% "
                  f"{'' if bound is None else f'{100 * bound:.0f}%':>6s} "
                  f"{result}")
    return 1 if regressed else 0


def _cell(values: Tuple[float, float, float]) -> str:
    q1, median, q3 = values
    return f"{median:12.4g} [{q1:9.4g}, {q3:9.4g}]"
