"""The append-only journal under real concurrency: several processes on
one lease directory or result store, released together by a barrier.

Nothing here sleeps for correctness: ordering comes from the barrier,
from joining a process before the next step, or from the journal lock
itself.
"""

import json
import multiprocessing
import os
import sys
import threading
from collections import Counter

import pytest

from repro import corpus
from repro.fabric import LeaseCoordinator
from repro.fabric.leases import LeaseStore
from repro.runner import (
    EntryResult,
    RunStore,
    RunStoreWarning,
    SweepPlan,
    SweepRunner,
)
from repro.utils.journal import Journal, atomic_write

PROCESSES = 4
TIMEOUT = 60.0


def run_processes(target, argument_sets):
    """Run ``target(*arguments, barrier, queue)`` once per argument set,
    each in its own spawned process; returns what each put on the queue."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(len(argument_sets))
    queue = context.Queue()
    processes = [context.Process(target=target,
                                 args=(*arguments, barrier, queue))
                 for arguments in argument_sets]
    for process in processes:
        process.start()
    try:
        # Drain the queue before joining: a child blocks on exit until
        # what it queued has been read.
        results = [queue.get(timeout=TIMEOUT) for _ in processes]
    finally:
        for process in processes:
            process.join(timeout=TIMEOUT)
    assert not any(process.is_alive() for process in processes)
    assert [process.exitcode for process in processes] == \
        [0] * len(processes)
    return results


def run_process(target, *arguments):
    """Run ``target(*arguments)`` to completion in one spawned process."""
    context = multiprocessing.get_context("spawn")
    process = context.Process(target=target, args=arguments)
    process.start()
    process.join(timeout=TIMEOUT)
    assert not process.is_alive()
    assert process.exitcode == 0


def result(name, fingerprint):
    return EntryResult(name=name, status="ok", engine="symbolic",
                       fingerprint=fingerprint, duration=0.01)


# ----------------------------------------------------------------------
# Child-process bodies (module level, so spawned children can import them)
# ----------------------------------------------------------------------
def claim_every_key(directory, keys, holder, barrier, queue):
    store = LeaseStore(directory)
    barrier.wait(timeout=TIMEOUT)
    granted = []
    for key in keys:
        lease = store.claim(key, key, holder, duration=3600.0)
        if lease is not None:
            granted.append((key, lease.token))
    queue.put(granted)


def churn_tokens(directory, holder, rounds, barrier, queue):
    store = LeaseStore(directory)
    barrier.wait(timeout=TIMEOUT)
    tokens = []
    for number in range(rounds):
        lease = store.claim(f"{holder}-{number}", holder, holder,
                            duration=3600.0)
        tokens.append(lease.token)
        store.release(lease, "ok")
        if number % 5 == 4:
            store.compact()
    queue.put(tokens)


def put_one(directory, name, fingerprint):
    RunStore(directory).put(result(name, fingerprint))


def die_mid_append(path, name, fingerprint):
    line = json.dumps(result(name, fingerprint).to_dict(), sort_keys=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line[:len(line) // 2])
        handle.flush()
        os._exit(0)  # the crash: no newline, no cleanup


def compact_leases(directory):
    LeaseStore(directory).compact()


def coordinate(lease_dir, store_dir, names, barrier, queue):
    coordinator = LeaseCoordinator(
        SweepPlan(names=names, backend="serial"), leases=lease_dir,
        store=RunStore(store_dir))
    barrier.wait(timeout=TIMEOUT)
    sweep = coordinator.run()
    queue.put(json.dumps(sweep.stable_json_dict(), sort_keys=True))


# ----------------------------------------------------------------------
# The cases
# ----------------------------------------------------------------------
class TestLeasesAcrossProcesses:
    def test_each_key_is_granted_once(self, tmp_path):
        keys = [f"entry-{number}::f" for number in range(150)]
        grants = run_processes(claim_every_key, [
            (str(tmp_path), keys, f"holder-{number}")
            for number in range(PROCESSES)])
        granted = Counter(key for grant in grants for key, _ in grant)
        assert granted == Counter(keys)  # every key once, none twice
        tokens = [token for grant in grants for _, token in grant]
        assert len(set(tokens)) == len(tokens)

    def test_each_key_is_granted_once_across_threads(self, tmp_path):
        # Threads of one process, each with its own store: the flock
        # excludes them like processes.
        keys = [f"entry-{number}::f" for number in range(100)]
        barrier = threading.Barrier(PROCESSES)
        grants = []

        def claim(holder):
            store = LeaseStore(str(tmp_path))
            barrier.wait(timeout=TIMEOUT)
            for key in keys:
                if store.claim(key, key, holder, duration=3600.0):
                    grants.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=claim, args=(f"t{number}",))
                       for number in range(PROCESSES)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert Counter(grants) == Counter(keys)

    def test_no_token_repeats_across_holders_and_compactions(
            self, tmp_path):
        rounds = 30
        issued = run_processes(churn_tokens, [
            (str(tmp_path), f"holder-{number}", rounds)
            for number in range(PROCESSES)])
        tokens = [token for tokens in issued for token in tokens]
        assert len(tokens) == PROCESSES * rounds
        assert len(set(tokens)) == len(tokens)
        # A store opened on the compacted journal continues the sequence.
        fresh = LeaseStore(str(tmp_path)).claim(
            "late::f", "late", "late", duration=60.0)
        assert fresh.token > max(tokens)

    def test_store_rebuilds_after_another_process_compacted(
            self, tmp_path):
        store = LeaseStore(str(tmp_path))
        first = store.claim("a::f", "a", "w1", duration=3600.0)
        second = store.claim("b::f", "b", "w1", duration=3600.0)
        run_process(compact_leases, str(tmp_path))
        # Every operation of the live store now replays the replaced
        # file from the start; the table it rebuilds must match a
        # fresh load, with nothing lost or doubled.
        assert store.release(first, "ok")
        assert store.renew(second, duration=3600.0) is not None
        third = store.claim("c::f", "c", "w1", duration=3600.0)
        assert third.token == second.token + 1
        fresh = LeaseStore(str(tmp_path))
        assert sorted(lease.key for lease in fresh.active_leases()) == \
            ["b::f", "c::f"]
        assert sorted(store.active_leases(), key=lambda l: l.key) == \
            sorted(fresh.active_leases(), key=lambda l: l.key)


class TestRunStoreAcrossProcesses:
    def test_compact_keeps_another_process_append(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(result("mine", "a" * 64))
        run_process(put_one, str(tmp_path), "theirs", "b" * 64)
        store.compact()
        reloaded = RunStore(str(tmp_path))
        assert reloaded.lookup("mine", "a" * 64) is not None
        assert reloaded.lookup("theirs", "b" * 64) is not None

    def test_append_after_a_torn_tail_survives_reload(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put(result("before", "a" * 64))
        run_process(die_mid_append, store.path, "victim", "v" * 64)
        with pytest.warns(RunStoreWarning, match="corrupt result record"):
            store.put(result("after", "b" * 64))
        with pytest.warns(RunStoreWarning, match="corrupt result record"):
            reloaded = RunStore(str(tmp_path))
        assert reloaded.skipped_lines == 1
        assert reloaded.lookup("before", "a" * 64) is not None
        assert reloaded.lookup("after", "b" * 64) is not None


class TestCoordinatorsSharingAStore:
    def test_each_entry_is_computed_once(self, tmp_path):
        names = corpus.names()[:12]
        reference = json.dumps(
            SweepRunner(SweepPlan(names=names)).run().stable_json_dict(),
            sort_keys=True)
        lease_dir, store_dir = str(tmp_path / "leases"), str(tmp_path / "store")
        sweeps = run_processes(coordinate, [
            (lease_dir, store_dir, names) for _ in range(2)])
        assert sweeps == [reference, reference]
        # Every computation stores one record: one record per entry
        # means no entry was computed by both coordinators.
        with open(os.path.join(store_dir, "results.jsonl"),
                  encoding="utf-8") as handle:
            stored = Counter(json.loads(line)["name"] for line in handle)
        assert stored == Counter(names)


class TestAtomicWrite:
    def test_replaces_the_file_and_leaves_no_temporary(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        atomic_write(path, lambda handle: handle.write("one\n"))
        atomic_write(path, lambda handle: handle.write("two\n"))
        assert (tmp_path / "snapshot.json").read_text() == "two\n"
        assert os.listdir(str(tmp_path)) == ["snapshot.json"]

    def test_a_failed_write_keeps_the_old_file(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        atomic_write(path, lambda handle: handle.write("kept\n"))

        def fail(handle):
            handle.write("partial")
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError):
            atomic_write(path, fail)
        assert (tmp_path / "snapshot.json").read_text() == "kept\n"
        assert os.listdir(str(tmp_path)) == ["snapshot.json"]


class TestReplay:
    def test_replay_decodes_only_the_new_tail(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer, reader = Journal(path), Journal(path)
        seen = []
        with writer.locked():
            writer.append({"n": 1})
        reader.replay(seen.append)
        with writer.locked():
            writer.append({"n": 2})
        reader.replay(seen.append)
        assert seen == [{"n": 1}, {"n": 2}]
