"""A fixed sequence of RunStore operations, and what it leaves on disk.

:func:`run` drives the public store API through every path that writes
``results.jsonl`` or serves from it: puts of every status, a re-recorded
key, a torn final line, a compaction, a merge, deferred merges, a
compaction by a second store under one holding deferred adoptions, and
gc by count and by age.  Every ``stored_at`` stamp is fixed, so the
outcome -- each file's text, each lookup's result, each duration hint
-- is a pure function of the store's code.

``data/store_golden.json`` holds that outcome as the store wrote it when
it kept every record in memory.  The offset index must write the same
bytes and serve the same results.  Regenerate it only when the file
format changes on purpose::

    PYTHONPATH=src python tests/runner/store_scenario.py \\
        > tests/runner/data/store_golden.json
"""

import json
import os
import shutil
import sys
import tempfile
import warnings
from unittest import mock

import repro.runner.store as store_module
from repro.runner import EntryResult, RunStore

#: Names and fingerprints the lookups and hints ask about.
KEYS = [("a", "fa"), ("a", "fa2"), ("b", "fb"), ("c", "fc"), ("d", "fd"),
        ("e", "fe"), ("señal", "fs"), ("f", "ff"), ("g", "fg"),
        ("h", "fh"), ("x", "fx")]


def result(name, fingerprint, status="ok", duration=0.01):
    failed = status in ("error", "timeout")
    return EntryResult(
        name=name, status=status, engine="symbolic", fingerprint=fingerprint,
        report=None if failed else {"stg_name": name, "states": len(name)},
        mismatches=["csc: expected True"] if status == "mismatch" else [],
        error=f"{status} of {name}" if failed else None, duration=duration)


def put(store, stamp, *arguments, **keywords):
    """``store.put`` of a fresh result stamped ``stamp``."""
    with mock.patch.object(store_module.time, "time", lambda: stamp):
        store.put(result(*arguments, **keywords))


def copy_store(source, target):
    """A new store in ``target`` holding ``source``'s file."""
    os.makedirs(target)
    shutil.copyfile(os.path.join(source, store_module.RESULTS_FILE),
                    os.path.join(target, store_module.RESULTS_FILE))
    return RunStore(target)


def text(store):
    with open(store.path, encoding="utf-8") as handle:
        return handle.read()


def served(store):
    """Every lookup's result (as a dict, or ``None``), every duration
    hint and membership answer, and the record count."""
    return {
        "lookups": [None if hit is None else hit.to_dict()
                    for hit in (store.lookup(*key) for key in KEYS)],
        "hints": [store.duration_hint(name) for name, _ in KEYS],
        "members": [name in store for name, _ in KEYS],
        "records": len(store),
    }


def run(root):
    """Drive the scenario in the empty directory ``root``; returns the
    files it wrote and what the stores served, by stage."""
    outcome = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        written = RunStore(os.path.join(root, "written"))
        put(written, 100.0, "a", "fa", duration=0.5)
        put(written, 110.0, "b", "fb", status="error")
        put(written, 120.0, "c", "fc", status="mismatch", duration=0.3)
        line = json.dumps(result("torn", "ft").to_dict(), sort_keys=True)
        with open(written.path, "a", encoding="utf-8") as handle:
            handle.write(line[:len(line) // 2])  # a writer died mid-line
        put(written, 130.0, "a", "fa", duration=0.25)  # latest wins
        put(written, 140.0, "d", "fd", status="timeout", duration=2.0)
        put(written, 145.0, "señal", "fs", duration=0.125)
        outcome["written"] = {"text": text(written), **served(written)}

        other = RunStore(os.path.join(root, "other"))
        put(other, 105.0, "b", "fb")  # a verdict beats an error
        put(other, 115.0, "c", "fc")  # verdicts: the incumbent stays
        put(other, 150.0, "d", "fd", status="timeout", duration=1.0)
        put(other, 90.0, "e", "fe", status="error")
        put(other, 95.0, "a", "fa2", duration=0.75)
        outcome["other"] = {"text": text(other), **served(other)}

        compacted = copy_store(written.directory,
                               os.path.join(root, "compacted"))
        compacted.compact()
        outcome["compacted"] = {"text": text(compacted),
                                **served(compacted)}

        merged = copy_store(written.directory, os.path.join(root, "merged"))
        adopted = merged.merge(other.directory)
        outcome["merged"] = {"text": text(merged), "adopted": adopted,
                             **served(merged)}

        deferred = RunStore(os.path.join(root, "deferred"))
        adopted = [deferred.merge(written, compact=False),
                   deferred.merge(other, compact=False)]
        put(deferred, 160.0, "f", "ff", duration=0.5)
        put(deferred, 161.0, "a", "fa", duration=0.0625)
        before = {"text": text(deferred), **served(deferred)}
        deferred.compact()
        outcome["deferred"] = {"adopted": adopted, "before": before,
                               "text": text(deferred), **served(deferred)}

        # A second store compacts under one holding deferred adoptions,
        # which then rebuilds its index from its adoptions and the file.
        holder = RunStore(os.path.join(root, "shared"))
        holder.merge(other, compact=False)
        second = RunStore(holder.directory)
        put(second, 170.0, "g", "fg")
        put(second, 171.0, "b", "fb", status="error")
        second.compact()
        put(holder, 172.0, "h", "fh", duration=3.0)
        before = {"text": text(holder), **served(holder)}
        holder.compact()
        outcome["shared"] = {"before": before, "text": text(holder),
                             **served(holder)}

        by_count = copy_store(merged.directory, os.path.join(root, "count"))
        evicted = by_count.gc(max_entries=3)
        outcome["gc_count"] = {"text": text(by_count), "evicted": evicted,
                               **served(by_count)}
        by_age = copy_store(merged.directory, os.path.join(root, "age"))
        evicted = by_age.gc(max_age=30.0, now=150.0)
        outcome["gc_age"] = {"text": text(by_age), "evicted": evicted,
                             **served(by_age)}
    return outcome


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        json.dump(run(scratch), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
