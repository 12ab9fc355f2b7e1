"""Registry-hygiene pass (RA301-RA302): every literal registration is
exercised under tests/ and documented in the README."""

import os

from tools.analysis import registry
from tools.analysis.core import Config, Project, normalise


def build_project(tmp_path, readme="", tests=""):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "myengines.py").write_text(
        "def register(name, engine):\n    pass\n\n\n"
        "register('alpha', object())\n"
        "register('beta', object())\n")
    (src / "checks.py").write_text(
        "def register_check(spec):\n    pass\n\n\n"
        "class CheckSpec:\n"
        "    def __init__(self, name):\n        self.name = name\n\n\n"
        "register_check(CheckSpec(name='gamma'))\n")
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    (tests_dir / "test_things.py").write_text(tests)
    readme_path = tmp_path / "README.md"
    readme_path.write_text(readme)
    config = Config(
        library_prefixes=(normalise(str(src)),),
        exclude=(),
        tests_root=str(tests_dir),
        readme_path=str(readme_path))
    return Project.load([str(src)], config)


def findings_by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def test_untested_and_undocumented_names_fire(tmp_path):
    project = build_project(
        tmp_path,
        readme="| `alpha` | the alpha engine |\n",
        tests="run('alpha')\nassert 'gamma'\n")
    findings = registry.run(project)
    untested = findings_by_rule(findings, "RA301")
    assert [f.message for f in untested] == [
        "registered engine 'beta' is never exercised under "
        f"{project.config.tests_root}/"]
    undocumented = {f.message.split("'")[1]
                    for f in findings_by_rule(findings, "RA302")}
    assert undocumented == {"beta", "gamma"}


def test_fully_covered_registrations_are_clean(tmp_path):
    project = build_project(
        tmp_path,
        readme="`alpha` `beta` `gamma`\n",
        tests="alpha beta gamma\n")
    assert registry.run(project) == []


def test_kind_comes_from_the_registry_module(tmp_path):
    project = build_project(tmp_path)
    kinds = {(r.kind, r.name)
             for r in registry._literal_registrations(project)}
    assert kinds == {("engine", "alpha"), ("engine", "beta"),
                     ("check", "gamma")}


def test_word_boundary_matching(tmp_path):
    """'beta' inside 'betamax' does not count as exercised."""
    project = build_project(tmp_path, readme="alpha beta gamma",
                            tests="alpha betamax gamma")
    untested = findings_by_rule(registry.run(project), "RA301")
    assert len(untested) == 1 and "'beta'" in untested[0].message


def test_real_repo_registries_are_covered(in_repo_root):
    """The repo's own engines/backends/checks are all tested and
    documented -- the invariant this pass now gates."""
    project = Project.load(["src"], Config())
    registrations = registry._literal_registrations(project)
    names = {r.name for r in registrations}
    # the three registries the facade exposes
    assert {"symbolic", "explicit", "process", "serial",
            "csc", "consistency"} <= names
    assert registry.run(project) == []


def test_missing_readme_is_tolerated(tmp_path):
    project = build_project(tmp_path, readme="", tests="alpha beta gamma")
    os.remove(project.config.readme_path)
    findings = registry.run(project)
    assert findings_by_rule(findings, "RA301") == []
    assert len(findings_by_rule(findings, "RA302")) == 3
