"""Every example runs and every benchmark module imports.

Nothing else in the suite touches ``examples/`` or ``benchmarks/`` (the
benchmark suite itself runs only with ``pytest benchmarks``), so without
these tests a deletion that breaks them would pass every gate.
"""

import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXAMPLES = sorted(name for name in os.listdir(os.path.join(ROOT, "examples"))
                  if name.endswith(".py"))

#: Arguments that keep an example quick (its default scale takes ~12 s).
ARGUMENTS = {"pipeline_scaling.py": ("6",)}

BENCHMARK_MODULES = sorted(
    name[:-len(".py")]
    for name in os.listdir(os.path.join(ROOT, "benchmarks"))
    if name.endswith(".py"))


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"),
                      os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", example),
         *ARGUMENTS.get(example, ())],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("module", BENCHMARK_MODULES)
def test_benchmark_module_imports(module):
    importlib.import_module(f"benchmarks.{module}")
