"""Acceptance criterion: the analyzer gates this repository and the
repository passes it.

``python -m tools.analysis src tests tools benchmarks examples`` must
exit 0 -- every
determinism finding in src/repro was fixed (not baselined), the schema
and facade contracts hold, and every registered name is tested and
documented."""

import json
import subprocess
import sys

from tools.analysis.cli import main


def test_default_invocation_is_clean(in_repo_root, capsys):
    assert main(["src", "tests", "tools", "benchmarks", "examples"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_module_entry_point(in_repo_root):
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analysis", "src", "tests", "tools"],
        capture_output=True, text=True, cwd=in_repo_root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "files checked" in proc.stdout


def test_baseline_is_empty(in_repo_root):
    """No findings were grandfathered: the committed baseline holds
    zero entries (satellite: fix determinism findings, don't baseline
    them)."""
    with open("tools/analysis/baseline.json", encoding="utf-8") as handle:
        assert json.load(handle)["findings"] == []


def test_json_artifact_for_ci(in_repo_root, tmp_path, capsys):
    report = tmp_path / "analysis.json"
    assert main(["src", "tests", "tools", "--json", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["schema"] == 1
    assert payload["counts"]["new"] == 0
    assert payload["files_checked"] > 100
