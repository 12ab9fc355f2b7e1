"""LeaseCoordinator: clean and fault-injected parity with the plain
runner, retry accounting, work stealing, drain, issue order."""

import json
import time

import pytest

from repro.api import EngineConfig
from repro.fabric import LeaseCoordinator, LeaseStore, RetryPolicy
from repro.fabric.coordinator import METRICS_FILE, lease_key
from repro.runner import RunStore, SweepPlan, SweepRunner

#: Small but mixed-verdict corpus slice: fast, and any scheduling
#: influence on verdicts would show up in stable JSON immediately.
SELECTION = ["handshake", "vme_read", "inconsistent", "irreducible_csc",
             "random_ring_n4_s1"]

#: No-sleep retry policy: backoff exists but costs no wall clock.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0,
                         jitter=0.0)


def stable_json(sweep):
    return json.dumps(sweep.stable_json_dict(), sort_keys=True)


def coordinate(tmp_path, config=None, policy=FAST_RETRY, names=SELECTION,
               lease_duration=30.0, **kwargs):
    plan = SweepPlan(names=list(names), jobs=2, backend="thread",
                     config=config or EngineConfig())
    coordinator = LeaseCoordinator(
        plan, leases=str(tmp_path / "leases"), policy=policy,
        lease_duration=lease_duration, **kwargs)
    return coordinator, coordinator.run()


class TestCleanParity:
    def test_lease_sweep_matches_the_plain_runner_byte_for_byte(
            self, tmp_path):
        reference = SweepRunner(SweepPlan(names=SELECTION)).run()
        _, sweep = coordinate(tmp_path)
        assert stable_json(sweep) == stable_json(reference)
        assert sweep.succeeded

    def test_results_preserve_plan_order(self, tmp_path):
        _, sweep = coordinate(tmp_path)
        assert [result.name for result in sweep] == SELECTION

    def test_every_lease_is_released(self, tmp_path):
        coordinator, _ = coordinate(tmp_path)
        assert coordinator.leases.active_leases() == []
        snapshot = coordinator.metrics.snapshot()
        assert snapshot["fabric.lease.claims"]["value"] == len(SELECTION)
        assert snapshot["fabric.lease.releases"]["value"] == \
            len(SELECTION)

    def test_metrics_snapshot_is_written_to_the_lease_dir(self, tmp_path):
        coordinate(tmp_path)
        with open(tmp_path / "leases" / METRICS_FILE,
                  encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot["rounds"] >= 1
        assert "fabric.lease.claims" in snapshot["metrics"]


class TestFaultedParity:
    def test_universal_crashes_are_retried_to_the_clean_verdicts(
            self, tmp_path):
        reference = SweepRunner(SweepPlan(names=SELECTION)).run()
        coordinator, sweep = coordinate(
            tmp_path, config=EngineConfig(fault_plan="crash=1,seed=5"))
        assert stable_json(sweep) == stable_json(reference)
        snapshot = coordinator.metrics.snapshot()
        assert snapshot["fabric.retry.error"]["value"] == len(SELECTION)

    def test_universal_hangs_surface_as_timeouts_then_recover(
            self, tmp_path):
        reference = SweepRunner(SweepPlan(names=SELECTION)).run()
        coordinator, sweep = coordinate(
            tmp_path, config=EngineConfig(fault_plan="hang=1,seed=5"))
        assert stable_json(sweep) == stable_json(reference)
        snapshot = coordinator.metrics.snapshot()
        assert snapshot["fabric.retry.timeout"]["value"] == len(SELECTION)

    def test_exhausted_retries_keep_the_best_so_far_record(self, tmp_path):
        # Attempt budget 1 + guaranteed crash: no retry ever happens,
        # the error record is the entry's final word, the sweep ends.
        _, sweep = coordinate(
            tmp_path, names=["handshake"],
            config=EngineConfig(fault_plan="crash=1,seed=5"),
            policy=RetryPolicy(max_attempts=1))
        result, = sweep.results
        assert result.status == "error"
        assert "injected worker crash" in result.error
        assert result.provenance["attempt"] == "1"

    def test_retry_provenance_records_the_final_attempt(self, tmp_path):
        _, sweep = coordinate(
            tmp_path, names=["handshake"],
            config=EngineConfig(fault_plan="crash=1,seed=5"))
        result, = sweep.results
        assert result.status == "ok"
        assert result.provenance["attempt"] == "2"


class TestWorkStealing:
    def test_expired_foreign_lease_is_stolen(self, tmp_path):
        plan = SweepPlan(names=["handshake"], backend="serial")
        leases = LeaseStore(str(tmp_path / "leases"))
        task, = plan.tasks()
        # A dead worker's lease: claimed long ago, never renewed.
        stale = leases.claim(lease_key(task), task.name, "dead-worker",
                             duration=5.0,
                             now=time.time() - 100.0)
        assert stale is not None
        coordinator = LeaseCoordinator(plan, leases=leases,
                                       policy=FAST_RETRY)
        sweep = coordinator.run()
        assert sweep.results[0].status == "ok"
        assert coordinator.metrics.snapshot()[
            "fabric.lease.reclaims"]["value"] == 1

    def test_validly_leased_entry_is_not_double_issued(self, tmp_path):
        plan = SweepPlan(names=["handshake", "vme_read"],
                         backend="serial")
        leases = LeaseStore(str(tmp_path / "leases"))
        held, other = plan.tasks()
        foreign = leases.claim(lease_key(held), held.name, "other-host",
                               duration=0.6)
        coordinator = LeaseCoordinator(plan, leases=leases,
                                       policy=FAST_RETRY,
                                       lease_duration=0.6)
        sweep = coordinator.run()
        # The coordinator waited out the foreign lease, then stole it:
        # both entries end verified, nothing ran while validly leased.
        assert [r.status for r in sweep.results] == ["ok", "ok"]
        assert foreign.expired()


class TestDrain:
    def test_pre_drained_coordinator_reports_unrun_entries(self, tmp_path):
        plan = SweepPlan(names=SELECTION)
        coordinator = LeaseCoordinator(plan,
                                       leases=str(tmp_path / "leases"),
                                       policy=FAST_RETRY)
        coordinator.request_drain()
        sweep = coordinator.run()
        assert len(sweep) == len(SELECTION)
        assert all(result.status == "error" for result in sweep)
        assert all("drained" in result.error for result in sweep)

    def test_drained_sweep_keeps_cached_verdicts(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        plan = SweepPlan(names=SELECTION)
        LeaseCoordinator(plan, leases=str(tmp_path / "l1"), store=store,
                         policy=FAST_RETRY).run()
        drained = LeaseCoordinator(plan, leases=str(tmp_path / "l2"),
                                   store=store, policy=FAST_RETRY)
        drained.request_drain()
        sweep = drained.run()
        # Everything was already in the store: the drain had nothing
        # left to refuse.
        assert all(result.status == "ok" for result in sweep)
        assert all(result.cached for result in sweep)


class TestIssueOrder:
    def test_longest_job_first_with_unknowns_leading(self, tmp_path):
        plan = SweepPlan(names=["handshake", "vme_read", "mutex_element"])
        store = RunStore(str(tmp_path / "store"))
        sweep = SweepRunner(plan, store=store).run()
        coordinator = LeaseCoordinator(plan, leases=str(tmp_path / "l"),
                                       store=store)
        tasks = plan.tasks()
        order = coordinator._issue_order(tasks, [0, 1, 2])
        durations = {i: store.duration_hint(tasks[i].name)
                     for i in range(3)}
        assert sorted(order, key=lambda i: -durations[i]) == order
        # An entry the store never saw sorts ahead of every known one.
        fresh_plan = SweepPlan(names=["choice_controller", "handshake"])
        fresh = LeaseCoordinator(fresh_plan, leases=str(tmp_path / "l2"),
                                 store=store)
        assert fresh._issue_order(fresh_plan.tasks(), [0, 1]) == [0, 1]

    def test_invalid_lease_duration_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseCoordinator(SweepPlan(names=["handshake"]),
                             leases=str(tmp_path), lease_duration=0.0)
