"""Lint pass (RA401-RA405): the four rules folded in from the old
``tools/lint.py``, the recursive-closure rule, and the shim that keeps
``make lint`` working."""

import subprocess
import sys

from tools.analysis import lintpass


def by_rule(findings, rule):
    return [finding for finding in findings if finding.rule == rule]


class TestFiring:
    FIXTURE = "lint_fire.py"

    def test_unused_import_fires_on_marked_line(self, run_pass,
                                                expected_lines):
        findings = by_rule(run_pass(lintpass, self.FIXTURE), "RA402")
        assert [f.line for f in findings] == \
            expected_lines(self.FIXTURE, "RA402")
        assert "'os'" in findings[0].message

    def test_undefined_export_fires(self, run_pass):
        finding, = by_rule(run_pass(lintpass, self.FIXTURE), "RA403")
        assert "'missing_name'" in finding.message
        assert finding.line == 1  # reported against the module

    def test_duplicate_definition_fires_on_marked_line(self, run_pass,
                                                       expected_lines):
        findings = by_rule(run_pass(lintpass, self.FIXTURE), "RA404")
        assert [f.line for f in findings] == \
            expected_lines(self.FIXTURE, "RA404")
        assert "'duplicated'" in findings[0].message


def test_syntax_error_fires_with_location(run_pass):
    finding, = run_pass(lintpass, "lint_syntax_error.py")
    assert finding.rule == "RA401"
    assert finding.line == 3  # the `def broken(:` line
    assert "syntax error" in finding.message


def test_clean_fixture_reports_nothing(run_pass):
    assert run_pass(lintpass, "lint_clean.py") == []


def test_lint_rules_apply_outside_library_prefixes(run_pass,
                                                   fixture_config):
    """RA4xx has scope 'all': it fires even when the fixture tree is
    not configured as library code (unlike the determinism rules)."""
    config = fixture_config(library_prefixes=("src/",))
    findings = run_pass(lintpass, "lint_fire.py", config=config)
    assert {f.rule for f in findings} == {"RA402", "RA403", "RA404"}


def run_lint_shim(repo_root, target):
    """Run ``tools/lint.py`` on ``target`` with ruff forced absent so
    the shim falls back to the tools.analysis RA4 pass."""
    script = (
        "import shutil, sys, runpy\n"
        "shutil.which = lambda name: None\n"
        f"sys.argv = ['lint.py', {str(target)!r}]\n"
        f"sys.path.insert(0, {repo_root!r})\n"
        f"runpy.run_path({repo_root!r} + '/tools/lint.py', "
        "run_name='__main__')\n")
    return subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, cwd=repo_root)


def test_lint_shim_runs_the_ra4_pass(repo_root, fixture_path, tmp_path):
    """``python tools/lint.py <file>`` still works and reports the
    folded-in rules.  The fixture is copied out of the fixtures tree
    first: the shim honours the analyzer's default exclusions."""
    target = tmp_path / "dirty.py"
    with open(fixture_path("lint_fire.py"), encoding="utf-8") as handle:
        target.write_text(handle.read())
    proc = run_lint_shim(repo_root, target)
    assert proc.returncode == 1
    assert "RA402" in proc.stdout
    assert "lint (tools.analysis):" in proc.stdout


def test_lint_shim_clean_run_exits_zero(repo_root, fixture_path,
                                        tmp_path):
    target = tmp_path / "clean.py"
    with open(fixture_path("lint_clean.py"), encoding="utf-8") as handle:
        target.write_text(handle.read())
    proc = run_lint_shim(repo_root, target)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_recursive_closure_fires_on_marked_lines(run_pass, expected_lines):
    findings = run_pass(lintpass, "lint_closure_fire.py")
    assert {f.rule for f in findings} == {"RA405"}
    assert sorted(f.line for f in findings) == \
        expected_lines("lint_closure_fire.py", "RA405")
    assert "'visit'" in findings[0].message


def test_recursion_without_a_cycle_reports_nothing(run_pass):
    assert run_pass(lintpass, "lint_closure_clean.py") == []
