"""Benchmark-suite configuration.

The repository root ``conftest.py`` already makes ``src/`` importable;
this file only tunes pytest-benchmark defaults so a full run of
``pytest benchmarks/ --benchmark-only`` stays within a few minutes on a
laptop while still reporting stable medians.
"""


def pytest_benchmark_update_machine_info(config, machine_info):
    machine_info["suite"] = "stg-implementability-repro"
