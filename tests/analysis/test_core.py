"""Analyzer infrastructure: suppressions, baselines, rule toggling,
path handling, and the JSON report shape."""

import json

import pytest

from tools.analysis import baseline
from tools.analysis.cli import analyze_paths, main
from tools.analysis.core import (RULES, Config, Finding, iter_python_files,
                                 normalise, suppressions_of)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_comment_suppresses_its_own_line(self):
        text = "x = list(seen)  # repro: allow[RA001] insertion order ok\n"
        assert suppressions_of(text) == {1: {"RA001"}}

    def test_standalone_comment_suppresses_the_next_line(self):
        text = ("# repro: allow[RA001] iteration order laundered below\n"
                "x = list(seen)\n")
        assert suppressions_of(text) == {2: {"RA001"}}

    def test_multiple_rules_in_one_suppression(self):
        text = "y = 1  # repro: allow[RA001, RA002] both excused\n"
        assert suppressions_of(text) == {1: {"RA001", "RA002"}}

    def test_suppression_silences_a_finding_end_to_end(self, tmp_path,
                                                       capsys):
        target = tmp_path / "suppressed.py"
        target.write_text(
            "def collect(items):\n"
            "    seen = set(items)\n"
            "    out = []\n"
            "    # repro: allow[RA001] consumer sorts downstream\n"
            "    for item in seen:\n"
            "        out.append(item)\n"
            "    return out\n")
        exit_code = main([str(target), "--library", str(tmp_path),
                          "--exclude", "", "--no-baseline"])
        assert exit_code == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_unrelated_rule_is_not_suppressed(self, tmp_path):
        target = tmp_path / "wrong_rule.py"
        target.write_text(
            "def collect(items):\n"
            "    seen = set(items)\n"
            "    out = []\n"
            "    for item in seen:  # repro: allow[RA999] wrong id\n"
            "        out.append(item)\n"
            "    return out\n")
        config = Config(library_prefixes=(normalise(str(tmp_path)),),
                        exclude=(), tests_root=None, readme_path=None)
        result = analyze_paths([str(target)], config)
        assert [f.rule for f in result.findings] == ["RA001"]
        assert result.suppressed == []


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class TestBaseline:
    FINDING = Finding(rule="RA001", path="src/repro/x.py", line=7,
                      message="iteration over set 'seen' ...")

    def test_write_load_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        baseline.write(path, [self.FINDING, self.FINDING])  # dedups
        keys = baseline.load(path)
        assert keys == {self.FINDING.key}

    def test_split_partitions_on_key_not_line(self):
        moved = Finding(rule="RA001", path="src/repro/x.py", line=99,
                        message="iteration over set 'seen' ...")
        new, baselined = baseline.split([moved], {self.FINDING.key})
        assert new == [] and baselined == [moved]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert baseline.load(str(tmp_path / "absent.json")) == set()

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('["not", "an", "object"]')
        with pytest.raises(ValueError, match="malformed baseline"):
            baseline.load(str(path))

    def test_malformed_baseline_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"findings": 12}')
        assert main([str(path.parent), "--baseline", str(path)]) == 2
        assert "malformed baseline" in capsys.readouterr().err

    def test_baselined_findings_do_not_fail_the_run(self, tmp_path,
                                                    capsys):
        target = tmp_path / "legacy.py"
        target.write_text("def collect(items):\n"
                          "    seen = set(items)\n"
                          "    return [item for item in seen]\n")
        base = str(tmp_path / "baseline.json")
        write_args = [str(target), "--library", str(tmp_path),
                      "--exclude", "", "--baseline", base]
        assert main(write_args + ["--write-baseline"]) == 0
        capsys.readouterr()
        assert main(write_args) == 0
        out = capsys.readouterr().out
        assert "0 finding(s) (1 baselined" in out
        # without the baseline the same run fails
        assert main(write_args + ["--no-baseline"]) == 1


# ----------------------------------------------------------------------
# Rule toggling and scoping
# ----------------------------------------------------------------------
class TestConfig:
    def test_select_is_a_prefix_filter(self):
        config = Config(select=("RA0", "RA401"))
        assert config.rule_enabled("RA001")
        assert config.rule_enabled("RA401")
        assert not config.rule_enabled("RA402")
        assert not config.rule_enabled("RA101")

    def test_ignore_beats_select(self):
        config = Config(select=("RA0",), ignore=("RA002",))
        assert config.rule_enabled("RA001")
        assert not config.rule_enabled("RA002")

    def test_library_scope_rules_need_a_library_path(self):
        config = Config(library_prefixes=("src/",))
        assert config.rule_applies("RA001", "src/repro/x.py")
        assert not config.rule_applies("RA001", "tools/x.py")
        assert config.rule_applies("RA402", "tools/x.py")  # scope "all"

    def test_every_rule_id_is_unique_and_catalogued(self):
        assert len(RULES) == 19
        assert all(rule_id == rule.id for rule_id, rule in RULES.items())
        assert all(rule.scope in ("library", "all")
                   for rule in RULES.values())


def test_fixture_tree_is_excluded_by_default(in_repo_root):
    """The analyzer's own intentional-violation fixtures never leak
    into a default repo run."""
    files = [normalise(p) for p in
             iter_python_files(["tests/analysis"], Config())]
    assert files  # the test modules themselves are analyzed
    assert not any("fixtures" in path for path in files)


def test_normalise_makes_paths_repo_relative(in_repo_root, repo_root):
    assert normalise(repo_root + "/src/repro") == "src/repro"
    assert normalise("src/./repro") == "src/repro"


# ----------------------------------------------------------------------
# JSON report
# ----------------------------------------------------------------------
def test_json_report_shape(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text("def collect(items):\n"
                      "    seen = set(items)\n"
                      "    return [item for item in seen]\n")
    report = tmp_path / "report.json"
    exit_code = main([str(target), "--library", str(tmp_path),
                      "--exclude", "", "--no-baseline",
                      "--json", str(report)])
    assert exit_code == 1
    payload = json.loads(report.read_text())
    assert payload["schema"] == 1
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"new": 1, "baselined": 0,
                                 "suppressed": 0}
    finding, = payload["findings"]
    assert finding["rule"] == "RA001"
    assert finding["line"] == 3
    assert set(finding) == {"rule", "path", "line", "message"}


def test_list_rules_covers_the_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_nonexistent_path_is_a_usage_error(capsys):
    assert main(["definitely/not/here"]) == 2
    assert "no such path" in capsys.readouterr().err
