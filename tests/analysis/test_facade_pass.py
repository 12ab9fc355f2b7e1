"""Facade-purity pass (RA202-RA205): front-end code bound to repro.api,
serve code kept to transport, delta code kept to traversal seeding,
fabric scheduling metadata kept out of fingerprints and stable views."""

from tools.analysis import facade


class TestFiring:
    FIXTURE = "repro/runner/uses_internals.py"

    def test_marked_lines_fire(self, run_pass, expected_lines):
        findings = run_pass(facade, self.FIXTURE)
        assert sorted(f.line for f in findings if f.rule == "RA202") == \
            expected_lines(self.FIXTURE, "RA202")

    def test_bypass_reports_the_facade_alternative(self, run_pass):
        findings = run_pass(facade, self.FIXTURE)
        assert findings
        assert all("repro.api" in f.message for f in findings)


class TestServeFiring:
    FIXTURE = "repro/serve/uses_engine_internals.py"

    def test_marked_lines_fire(self, run_pass, expected_lines):
        findings = run_pass(facade, self.FIXTURE)
        assert sorted(f.line for f in findings if f.rule == "RA203") == \
            expected_lines(self.FIXTURE, "RA203")

    def test_serve_violations_do_not_double_report(self, run_pass):
        # The serve fragments are not frontend fragments: one violation,
        # one rule.
        findings = run_pass(facade, self.FIXTURE)
        assert {f.rule for f in findings} == {"RA203"}

    def test_messages_point_at_the_facade(self, run_pass):
        findings = run_pass(facade, self.FIXTURE)
        assert all("repro.api" in f.message for f in findings)


class TestDeltaFiring:
    FIXTURE = "repro/delta/touches_verdicts.py"

    def test_marked_lines_fire(self, run_pass, expected_lines):
        findings = run_pass(facade, self.FIXTURE)
        assert sorted(f.line for f in findings if f.rule == "RA204") == \
            expected_lines(self.FIXTURE, "RA204")

    def test_delta_violations_report_only_ra204(self, run_pass):
        # The delta fragments overlap neither the frontend nor the
        # serve fragments: one violation, one rule.
        findings = run_pass(facade, self.FIXTURE)
        assert {f.rule for f in findings} == {"RA204"}

    def test_messages_name_the_seeding_contract(self, run_pass):
        findings = run_pass(facade, self.FIXTURE)
        assert all("seed" in f.message for f in findings)


def test_seeding_only_delta_code_is_clean(run_pass):
    assert run_pass(facade, "repro/delta/seeding_only.py") == []


def test_transport_only_serve_code_is_clean(run_pass):
    assert run_pass(facade, "repro/serve/transport_only.py") == []


def test_facade_only_frontend_is_clean(run_pass):
    assert run_pass(facade, "repro/runner/facade_only.py") == []


def test_facade_layer_may_construct_internals(run_pass):
    assert run_pass(facade, "repro/api/engine_home.py") == []


def test_rules_scope_to_library_code(run_pass, fixture_config):
    config = fixture_config(library_prefixes=("src/",))
    assert run_pass(facade, "repro/runner/uses_internals.py",
                    config=config) == []


class TestFabricStableLeak:
    FIXTURE = "repro/runner/leaky_stable_view.py"

    def test_marked_lines_fire(self, run_pass, expected_lines):
        findings = run_pass(facade, self.FIXTURE)
        assert sorted(f.line for f in findings if f.rule == "RA205") == \
            expected_lines(self.FIXTURE, "RA205")

    def test_leaks_report_only_ra205(self, run_pass):
        findings = run_pass(facade, self.FIXTURE)
        assert {f.rule for f in findings} == {"RA205"}

    def test_messages_name_the_leaking_identifier(self, run_pass):
        findings = run_pass(facade, self.FIXTURE)
        assert any("'fault_plan'" in f.message for f in findings)
        assert all("fingerprints or" in f.message for f in findings)

    def test_one_finding_per_leaking_line(self, run_pass):
        # data["lease_holder"] = self.holder carries two flagged
        # identifiers; the pass reports the line once.
        findings = run_pass(facade, self.FIXTURE)
        lines = [f.line for f in findings if f.rule == "RA205"]
        assert len(lines) == len(set(lines))


def test_provenance_stripping_stable_views_are_clean(run_pass):
    # The sanctioned pattern: strip the whole provenance dict (fabric
    # metadata rides inside it), keep fabric words to docstrings and
    # non-stable functions, and token matching ignores "placeholder".
    assert run_pass(facade, "repro/runner/stable_view_clean.py") == []
