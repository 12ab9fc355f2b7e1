"""FaultPlan: spec round-trips, deterministic decisions, torn writes."""

import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpecError,
    parse_fault_spec,
    plan_from_config,
    torn_write,
)
from repro.utils.journal import Journal


class TestSpecParsing:
    def test_spec_round_trip_is_exact(self):
        plan = FaultPlan(seed=11, crash=0.25, hang=0.1, truncate=0.2,
                         stall=0.05)
        assert parse_fault_spec(plan.to_spec()) == plan

    def test_attempt_survives_the_spec_round_trip(self):
        plan = FaultPlan(seed=3, crash=0.5).for_attempt(2)
        assert parse_fault_spec(plan.to_spec()).attempt == 2

    @pytest.mark.parametrize("spec", [
        "crash", "crash=x", "crash=1.5", "bogus=0.1", "seed=x",
        "attempt=0"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)

    def test_plan_from_config_reads_the_knob(self):
        assert plan_from_config({}) is None
        assert plan_from_config({"fault_plan": None}) is None
        plan = plan_from_config({"fault_plan": "crash=0.5,seed=9"})
        assert plan == FaultPlan(seed=9, crash=0.5)


class TestDecisions:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=11, crash=0.5)
        keys = [f"fp-{i}" for i in range(50)]
        first = [plan.decides("crash", key) for key in keys]
        second = [plan.decides("crash", key) for key in keys]
        assert first == second
        assert any(first) and not all(first)  # rate 0.5 splits the keys

    def test_seed_decorrelates_plans(self):
        keys = [f"fp-{i}" for i in range(100)]
        a = [FaultPlan(seed=1, crash=0.5).decides("crash", k)
             for k in keys]
        b = [FaultPlan(seed=2, crash=0.5).decides("crash", k)
             for k in keys]
        assert a != b

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(seed=11)
        assert not any(plan.decides(kind, f"fp-{i}")
                       for kind in FAULT_KINDS for i in range(50))

    def test_rate_one_always_fires(self):
        plan = FaultPlan(crash=1.0)
        assert all(plan.decides("crash", f"fp-{i}") for i in range(20))

    def test_faults_fire_on_attempt_one_only(self):
        plan = FaultPlan(crash=1.0)
        assert plan.decides("crash", "fp")
        assert not plan.for_attempt(2).decides("crash", "fp")
        assert not plan.for_attempt(3).decides("crash", "fp")

    def test_unknown_kind_raises(self):
        with pytest.raises(FaultSpecError):
            FaultPlan().decides("meltdown", "fp")

    def test_out_of_range_rates_raise(self):
        with pytest.raises(FaultSpecError):
            FaultPlan(crash=-0.1)
        with pytest.raises(FaultSpecError):
            FaultPlan(hang=1.1)


class TestTornWrite:
    def test_torn_record_is_skipped_and_later_appends_survive(
            self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        torn_write(path, {"name": "victim", "fingerprint": "f1"})
        # The real crash shape: the torn line has no newline ...
        assert not (tmp_path / "results.jsonl").read_text().endswith("\n")
        # ... and the next journal append starts on a fresh line.
        journal = Journal(path)
        with journal.locked():
            journal.append({"ok": True})
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 2
        with pytest.raises(ValueError):
            json.loads(lines[0])  # the torn half-record
        assert json.loads(lines[1]) == {"ok": True}
