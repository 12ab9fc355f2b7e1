#!/usr/bin/env python3
"""Benchmark of the STG verifier: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload scale_allchecks --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics through the program's
public entry points; ``--trace 1`` sends the same inputs through each
layer's functions with spans and reports the per-layer metrics.  Metric
names, units and bounds live in ``BENCHMARK.json``.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is non-zero when any output
missed its reference.

Compare two result sets (directories of ``<workload>.jsonl`` files, one
result line per run)::

    python3 perfbench/run.py --compare OLD_DIR NEW_DIR

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("scale_allchecks", "corpus_sweep", "serve_mixed")
#: Scratch space for daemon state and replay stores (removed after a run).
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def emit(spec_metrics, values, correct, attempted, failed, notes) -> None:
    """Print the human-readable table, then the JSON result line."""
    wanted = {metric["name"]: metric["unit"] for metric in spec_metrics}
    missing = sorted(set(wanted) - set(values))
    extra = sorted(set(values) - set(wanted))
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing {missing}, unexpected {extra}")
    for name, unit in wanted.items():
        print(f"{name:36s} {values[name]:16.6f} {unit}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        import compare

        return compare.main(spec, *args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    work = os.path.join(WORK_ROOT, f"{os.getpid()}-{args.workload}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            import traced

            result = traced.run(args.workload, ROOT, args.seed,
                                args.seconds, work)
            metrics = spec["per_layer"]
        else:
            import e2e

            if args.workload == "serve_mixed":
                result = e2e.serve_mixed(ROOT, args.seed, args.seconds, work)
            else:
                result = getattr(e2e, args.workload)(ROOT, args.seed,
                                                     args.seconds)
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    for problem in result.problems[:20]:
        print(f"MISS {problem}", file=sys.stderr)
    correct = result.failed == 0
    emit(metrics, result.metrics, correct, result.attempted, result.failed,
         result.notes)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
