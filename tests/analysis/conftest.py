"""Test harness for the static analyzer (``tools.analysis``).

Makes the repo root importable (the ``tools`` package is not installed)
and provides fixtures to run individual passes over the snippet files in
``tests/analysis/fixtures/`` -- which the analyzer's default
configuration deliberately excludes, because they contain intentional
violations.  Firing fixtures mark their expected findings with
``# must-fire: RAxxx`` comments; the ``expected_lines`` fixture reads
them back so tests assert rule IDs *and* line numbers."""

import os
import re
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

_MARKER = re.compile(r"#\s*must-fire:\s*(RA\d+)")


@pytest.fixture
def repo_root():
    return REPO_ROOT


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def fixture_path():
    def resolve(name):
        return os.path.join(FIXTURES, *name.split("/"))
    return resolve


@pytest.fixture
def fixture_config():
    """Config factory treating the fixture tree as library code."""
    from tools.analysis.core import Config, normalise

    def build(**overrides):
        settings = dict(library_prefixes=(normalise(FIXTURES),),
                        exclude=())
        settings.update(overrides)
        return Config(**settings)
    return build


@pytest.fixture
def run_pass(fixture_path, fixture_config):
    """Run one pass over named fixture files, return its findings."""
    from tools.analysis.core import Project

    def run(pass_module, *names, config=None):
        paths = [fixture_path(name) for name in names]
        project = Project.load(paths, config or fixture_config())
        return pass_module.run(project)
    return run


@pytest.fixture
def expected_lines(fixture_path):
    """Line numbers marked ``# must-fire: <rule>`` in a fixture."""
    def read(name, rule):
        with open(fixture_path(name), encoding="utf-8") as handle:
            return [lineno
                    for lineno, line in enumerate(handle, start=1)
                    if any(match.group(1) == rule
                           for match in _MARKER.finditer(line))]
    return read


@pytest.fixture
def in_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    return REPO_ROOT
