"""Crash-mid-write recovery: torn store lines, ``--resume`` repair,
lease-expiry re-issue of exactly the unfinished entries, and verdict
byte-identity through it all."""

import json
import time

import pytest

from repro.api import EngineConfig
from repro.cli import main
from repro.fabric import LeaseCoordinator, LeaseStore
from repro.fabric.coordinator import lease_key
from repro.fabric.policy import RetryPolicy
from repro.faults import torn_write
from repro.runner import RunStore, SweepPlan, SweepRunner
from repro.runner.store import RunStoreWarning

SELECTION = ["handshake", "vme_read", "inconsistent", "irreducible_csc"]

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0,
                         jitter=0.0)


def stable_json(sweep):
    return json.dumps(sweep.stable_json_dict(), sort_keys=True)


class TestTornStoreWrites:
    def test_truncated_writes_leave_torn_lines_then_heal_via_steal(
            self, tmp_path):
        """truncate=1: every first write is torn, every lease expires
        unreleased, every entry is stolen and re-run -- and the final
        sweep is still byte-identical to a clean one."""
        reference = SweepRunner(SweepPlan(names=SELECTION)).run()
        store = RunStore(str(tmp_path / "store"))
        plan = SweepPlan(names=SELECTION, backend="serial",
                         config=EngineConfig(fault_plan="truncate=1,seed=5"))
        coordinator = LeaseCoordinator(
            plan, leases=str(tmp_path / "leases"), store=store,
            policy=FAST_RETRY, lease_duration=0.2)
        # The coordinator's own store catches up on the torn lines when
        # it re-checks a stolen entry.
        with pytest.warns(RunStoreWarning):
            sweep = coordinator.run()
        assert stable_json(sweep) == stable_json(reference)
        assert coordinator.metrics.snapshot()[
            "fabric.retry.truncated"]["value"] == len(SELECTION)
        assert store.skipped_lines == len(SELECTION)
        # The torn half-records are visible to a fresh load as corrupt
        # lines -- the exact state a killed sweep leaves behind.
        with pytest.warns(RunStoreWarning):
            reloaded = RunStore(str(tmp_path / "store"))
        assert reloaded.skipped_lines == len(SELECTION)
        assert len(reloaded) == len(SELECTION)  # the good second writes
        reloaded.compact()
        assert RunStore(str(tmp_path / "store")).skipped_lines == 0

    def test_resume_flag_compacts_the_damaged_store(self, tmp_path,
                                                    capsys):
        store_dir = tmp_path / "store"
        first = main(["batch-check", "handshake", "--cache-dir",
                      str(store_dir)])
        assert first == 0
        # A crash mid-append: the trailing record is torn in half.
        torn_write(str(store_dir / "results.jsonl"),
                   {"name": "victim", "fingerprint": "f1",
                    "status": "ok", "engine": "symbolic"})
        with pytest.warns(RunStoreWarning):
            resumed = main(["batch-check", "handshake", "--cache-dir",
                            str(store_dir), "--resume"])
        assert resumed == 0
        out = capsys.readouterr().out
        assert "cached" in out
        # --resume compacted: the file is pure JSONL again.
        lines = open(store_dir / "results.jsonl",
                     encoding="utf-8").read().splitlines()
        assert all(json.loads(line) for line in lines)
        assert RunStore(str(store_dir)).skipped_lines == 0


class TestLeaseExpiryReissue:
    def test_exactly_the_unfinished_fingerprints_are_reissued(
            self, tmp_path):
        """The mid-crash state: two entries verified and released, two
        left behind under a dead worker's expired leases.  A fresh
        coordinator re-issues exactly the unfinished two."""
        plan = SweepPlan(names=SELECTION, backend="serial")
        tasks = plan.tasks()
        finished, unfinished = tasks[:2], tasks[2:]

        store = RunStore(str(tmp_path / "store"))
        done = SweepRunner(SweepPlan(names=[t.name for t in finished]),
                           store=store).run()
        assert done.succeeded

        leases = LeaseStore(str(tmp_path / "leases"))
        stale_now = time.time() - 100.0
        for task in unfinished:
            assert leases.claim(lease_key(task), task.name,
                                "dead-worker", duration=5.0,
                                now=stale_now) is not None

        executed = []
        coordinator = LeaseCoordinator(
            plan, leases=leases, store=store, policy=FAST_RETRY,
            progress=lambda result: executed.append(result))
        sweep = coordinator.run()
        assert sweep.succeeded
        computed = [r.name for r in sweep.results if not r.cached]
        assert sorted(computed) == sorted(t.name for t in unfinished)
        # Both dead leases were stolen, none invented.
        snapshot = coordinator.metrics.snapshot()
        assert snapshot["fabric.lease.reclaims"]["value"] == \
            len(unfinished)
        assert snapshot["fabric.lease.claims"]["value"] == \
            len(unfinished)

    def test_reissued_verdicts_are_byte_identical_to_a_clean_sweep(
            self, tmp_path):
        reference = SweepRunner(SweepPlan(names=SELECTION)).run()
        plan = SweepPlan(names=SELECTION, backend="serial")
        leases = LeaseStore(str(tmp_path / "leases"))
        stale_now = time.time() - 100.0
        for task in plan.tasks():
            leases.claim(lease_key(task), task.name, "dead-worker",
                         duration=5.0, now=stale_now)
        sweep = LeaseCoordinator(plan, leases=leases,
                                 policy=FAST_RETRY).run()
        assert stable_json(sweep) == stable_json(reference)
