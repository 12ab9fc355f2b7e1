"""Tests of the engine and property-check registries and their error paths."""

import pytest

from repro import engines
from repro.api import (
    ALL,
    ApiError,
    CheckSpec,
    EngineConfig,
    UnknownCheckError,
    available_checks,
    default_checks,
    register_check,
    resolve_checks,
    supported_checks,
    unregister_check,
    verify,
)
from repro.engines import EngineRun
from repro.report import ImplementabilityClass, ImplementabilityReport
from repro.stg.generators import handshake


class TestEngineRegistry:
    @pytest.mark.smoke
    def test_builtins_are_registered(self):
        assert engines.available()[:2] == ["symbolic", "explicit"]

    def test_get_unknown_engine_has_did_you_mean(self):
        with pytest.raises(ApiError, match="did you mean: explicit"):
            engines.get("explcit")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            engines.register("symbolic", engines.get("symbolic"))

    def test_custom_engine_plugs_into_the_facade(self):
        class CannedEngine:
            """A fake backend: returns a fixed report, runs no checks."""

            name = "canned"

            @property
            def checks(self):
                return ["consistency"]

            def run(self, stg, config, checks):
                report = ImplementabilityReport(
                    stg_name=stg.name, method="canned")
                report.consistent = True
                return EngineRun(report=report)

        engines.register("canned", CannedEngine())
        try:
            report = verify(handshake(), EngineConfig(engine="canned"))
            assert report.method == "canned"
            assert report.consistent is True
        finally:
            engines.unregister("canned")
        with pytest.raises(ApiError):
            EngineConfig(engine="canned")  # gone again


class TestCheckRegistry:
    def test_builtin_checks_registered_in_canonical_order(self):
        assert available_checks() == [
            "consistency", "safeness", "persistency", "fake_conflicts",
            "csc", "reducibility", "liveness"]

    def test_liveness_is_opt_in_on_both_engines(self):
        for engine in ("symbolic", "explicit"):
            assert "liveness" not in default_checks(engine)
            assert "liveness" in supported_checks(engine)

    def test_resolve_none_is_the_default_set(self):
        assert resolve_checks(None, engine="explicit") == \
            default_checks("explicit")

    def test_resolve_all_is_the_supported_set(self):
        assert resolve_checks(ALL, engine="symbolic") == \
            supported_checks("symbolic")

    def test_resolve_comma_string_and_canonical_order(self):
        # Selection order does not matter; registry order does.
        assert resolve_checks("csc , consistency") == ["consistency", "csc"]
        assert resolve_checks(["reducibility", "csc"]) == \
            ["csc", "reducibility"]

    def test_unknown_check_has_did_you_mean(self):
        with pytest.raises(UnknownCheckError, match="did you mean: csc"):
            resolve_checks(["cSc".lower() + "x"])  # "cscx"

    def test_engine_unsupported_check_is_an_error(self):
        register_check(CheckSpec(
            name="bdd_width",
            phase="extra",
            description="a symbolic-only probe",
            engines=("symbolic",)))
        try:
            assert resolve_checks(["bdd_width"]) == ["bdd_width"]
            with pytest.raises(UnknownCheckError, match="not supported"):
                resolve_checks(["bdd_width"], engine="explicit")
        finally:
            unregister_check("bdd_width")

    def test_replacing_a_builtin_check_overrides_both_engines(self):
        from repro.api.checks import CHECKS

        original = CHECKS["csc"]
        calls = []

        def fake_csc(context, report):
            calls.append(report.method)
            report.add_verdict("complete state coding (CSC)", True)

        register_check(CheckSpec(
            name="csc", phase="CSC", description="stub",
            apply=fake_csc), replace=True)
        try:
            for engine in ("symbolic", "explicit"):
                report = verify(handshake(), EngineConfig(engine=engine),
                                checks=["csc"])
                assert report.csc is None  # the stub set only the verdict
            assert calls == ["symbolic", "explicit"]
        finally:
            register_check(original, replace=True)

    @pytest.mark.parametrize("engine", ["symbolic", "explicit"])
    def test_engines_share_the_one_check_loop(self, engine, monkeypatch):
        from repro.api import checks as checks_module

        seen = []
        real_run_checks = checks_module.run_checks

        def spy(context, selected, engine_name):
            seen.append((list(selected), engine_name))
            return real_run_checks(context, selected, engine_name)

        monkeypatch.setattr(checks_module, "run_checks", spy)
        report = verify(handshake(), EngineConfig(engine=engine),
                        checks=["safeness", "csc"])
        assert seen == [(["safeness", "csc"], engine)]
        assert report.method == engine
        assert list(report.timings) == ["T+C", "CSC"]

    def test_custom_check_runs_on_both_engines(self):
        register_check(CheckSpec(
            name="interface_width",
            phase="extra",
            description="at most 8 interface signals",
            apply=lambda context, report: report.add_verdict(
                "interface width", len(context.stg.signals) <= 8)))
        try:
            for engine in ("symbolic", "explicit"):
                report = verify(handshake(), EngineConfig(engine=engine),
                                checks=["consistency", "interface_width"])
                names = [verdict.name for verdict in report.verdicts]
                assert "interface width" in names
                assert all(verdict.holds for verdict in report.verdicts)
                assert list(report.timings) == ["T+C", "extra"]
        finally:
            unregister_check("interface_width")
        with pytest.raises(UnknownCheckError):
            resolve_checks(["interface_width"])


class TestFacadeValidation:
    def test_unknown_arbitration_place_is_an_api_error(self):
        from repro.stg.generators import mutex_element

        with pytest.raises(ApiError, match="did you mean: p_me"):
            verify(mutex_element(),
                   EngineConfig(arbitration_places=("p_mee",)))

    @pytest.mark.parametrize("engine", ["symbolic", "explicit"])
    def test_unknown_place_rejected_on_both_engines(self, engine):
        with pytest.raises(ApiError, match="unknown arbitration place"):
            verify(handshake(), EngineConfig(
                engine=engine, arbitration_places=("p_nowhere",)))

    @pytest.mark.smoke
    def test_subset_run_reports_only_selected_checks(self):
        report = verify(handshake(), checks=("csc",))
        names = [verdict.name for verdict in report.verdicts]
        assert names == ["complete state coding (CSC)",
                         "unique state coding (USC)"]
        # basics unchecked: the explicit partial verdict, never a rung
        # of the Definition 2.6 hierarchy
        assert report.classification is ImplementabilityClass.PARTIAL
        assert report.consistent is None

    def test_partial_coding_checks_leave_classification_undecided(self):
        # Basics pass but CSC was never checked: no class can be claimed
        # (a gate-implementable spec must not be reported as SI).
        report = verify(handshake(),
                        checks=("consistency", "persistency"))
        assert report.classification is ImplementabilityClass.PARTIAL
        # With CSC checked and passing, GATE is decided without the
        # reducibility check; a failed basic is decisive on its own.
        report = verify(handshake(),
                        checks=("consistency", "persistency", "csc"))
        assert report.gate_implementable
        from repro.stg.generators import inconsistent_example

        report = verify(inconsistent_example(),
                        checks=("consistency", "persistency"))
        assert str(report.classification) == "not SI-implementable"

    def test_initial_values_honoured_by_both_engines(self):
        for engine in ("symbolic", "explicit"):
            stg = handshake()
            stg._initial_values.clear()  # strip declared values
            config = EngineConfig(engine=engine,
                                  initial_values={"r": False, "a": False})
            report = verify(stg, config)
            assert report.gate_implementable, engine
