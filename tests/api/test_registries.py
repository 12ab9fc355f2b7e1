"""Tests of the engine names, the fixed property-check table and their
error paths."""

import os

import pytest

from repro.api import (
    ALL,
    ApiError,
    EngineConfig,
    UnknownCheckError,
    UnknownEngineError,
    available_checks,
    default_checks,
    resolve_checks,
    verify,
)
from repro.api.config import ENGINES
from repro.report import ImplementabilityClass
from repro.runner import backends
from repro.stg.generators import handshake

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "README.md")


class TestEngineNames:
    @pytest.mark.smoke
    def test_builtins_are_registered(self):
        assert ENGINES == ("symbolic", "explicit")
        assert EngineConfig().engine == "symbolic"

    def test_get_unknown_engine_has_did_you_mean(self):
        with pytest.raises(UnknownEngineError) as info:
            EngineConfig(engine="explcit")
        assert isinstance(info.value, ApiError)
        assert str(info.value).endswith("did you mean: explicit?")


class TestCheckRegistry:
    def test_builtin_checks_registered_in_canonical_order(self):
        assert available_checks() == [
            "consistency", "safeness", "persistency", "fake_conflicts",
            "csc", "reducibility", "liveness"]

    def test_liveness_is_opt_in(self):
        assert "liveness" not in default_checks()
        assert "liveness" in available_checks()

    def test_resolve_none_is_the_default_set(self):
        assert resolve_checks(None) == default_checks()

    def test_resolve_all_is_every_check(self):
        assert resolve_checks(ALL) == available_checks()

    def test_resolve_comma_string_and_canonical_order(self):
        # Selection order does not matter; table order does.
        assert resolve_checks("csc , consistency") == ["consistency", "csc"]
        assert resolve_checks(["reducibility", "csc"]) == \
            ["csc", "reducibility"]

    def test_unknown_check_has_did_you_mean(self):
        with pytest.raises(UnknownCheckError, match="did you mean: csc"):
            resolve_checks(["cSc".lower() + "x"])  # "cscx"

    @pytest.mark.parametrize("engine", ["symbolic", "explicit"])
    def test_engines_share_the_one_check_loop(self, engine, monkeypatch):
        from repro.api import facade

        seen = []
        real_run_checks = facade.run_checks

        def spy(context, selected, engine_name):
            seen.append((list(selected), engine_name))
            return real_run_checks(context, selected, engine_name)

        monkeypatch.setattr(facade, "run_checks", spy)
        report = verify(handshake(), EngineConfig(engine=engine),
                        checks=["safeness", "csc"])
        assert seen == [(["safeness", "csc"], engine)]
        assert report.method == engine
        assert list(report.timings) == ["T+C", "CSC"]


@pytest.mark.parametrize("kind, name", [
    *(("engine", name) for name in ENGINES),
    *(("backend", name) for name in backends.BACKENDS.available()),
    *(("check", name) for name in available_checks()),
])
def test_readme_names_every_engine_backend_and_check(kind, name):
    with open(README, encoding="utf-8") as handle:
        readme = handle.read()
    assert f"`{name}`" in readme, f"README never names the {kind} {name!r}"


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
