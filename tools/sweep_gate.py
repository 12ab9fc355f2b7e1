#!/usr/bin/env python
"""The sweep gate: backend parity + shard/merge reproduction, locally.

This is the off-GitHub mirror of the ``sweep`` and ``merge`` jobs of
``.github/workflows/ci.yml`` (``make ci`` runs it after lint and tests),
so the distributed-sweep contract is checkable on any machine:

1. **Backend parity** -- the same plan swept on both built-in backends
   (``process``, ``serial``) must produce byte-identical stable JSON
   (``batch-check --stable-json``).
2. **Shard/merge reproduction** -- the corpus swept as four separate
   ``--shard i/4`` runs (alternating between the backends, each into its
   own run store) and recombined with ``batch-check --merge`` must
   reproduce the unsharded reference sweep byte for byte.
3. **BDD-cache parity** -- the same sweep with no ``--bdd-cache``,
   against a cold BDD store, and against the warm store must produce
   byte-identical stable JSON: a served reachable set must reproduce
   the cold verdicts exactly (only timing fields may differ, and those
   are excluded from the stable view).
4. **Trace parity** -- the same sweep untraced and with ``--trace DIR``
   must produce byte-identical stable JSON (and the traced run must
   actually write per-entry trace files): observability is excluded
   from fingerprints and can never perturb a verdict.
5. **Delta parity** -- an edited specification re-checked with
   ``--base`` (the incremental-verification warm start seeding the
   traversal from the cached base entry) must produce stable JSON
   byte-identical to a cold re-check, report the seed reuse tier, and
   leave the base entry intact for further edits of the same model.
   The same holds when ``--base`` names a corpus entry whose registry
   text is not in the writer's form (:data:`CORPUS_BASE`): the name
   must resolve to the key the base's check stored.
6. **Chaos parity** -- the corpus swept through the lease coordinator
   (``--leases``) under deterministic fault injection
   (``--inject-faults``: worker crashes, hangs, torn store writes,
   renewal stalls) with retry/backoff (``--retry``) must produce
   stable JSON byte-identical to the clean serial sweep, and every
   injected fault class must be visible in the coordinator's
   ``fabric.retry.*`` metrics -- the proof that the fault tolerance
   actually engaged rather than the dice all missing.  Then two
   coordinators started together on one lease directory and one run
   store must each reproduce the clean sweep byte for byte, and the
   store must hold exactly one record per entry: no entry computed
   twice.

Every ``batch-check`` call is a real subprocess with a *different*
``PYTHONHASHSEED``, so the gate also proves the stable output is
independent of interpreter hash randomisation -- the property that makes
cross-machine sharding sound.

Exit status: 0 when every comparison holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:  # run as a script, tools/ is sys.path[0]
    sys.path.insert(0, REPO_ROOT)

from tools.repro_process import repro_environment  # noqa: E402

BACKENDS = ("process", "serial")
#: Backend used by shard i of the 4-way partition (each backend twice,
#: mirroring the CI matrix).
SHARD_BACKENDS = ("process", "serial", "process", "serial")


def start_repro(arguments, seed):
    """Start ``python -m repro ...`` in a fresh interpreter."""
    command = [sys.executable, "-m", "repro", *arguments]
    return subprocess.Popen(
        command, env=repro_environment(PYTHONHASHSEED=str(seed)),
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def finish_repro(process):
    """Wait for a started ``python -m repro``; exit the gate on failure."""
    output, _ = process.communicate()
    if process.returncode != 0:
        print(output)
        raise SystemExit(
            f"sweep-gate: {' '.join(process.args)} exited "
            f"{process.returncode}")
    return output


def run_repro(arguments, seed):
    """Run ``python -m repro ...`` in a fresh interpreter."""
    return finish_repro(start_repro(arguments, seed))


def batch_check(arguments, seed):
    """Run ``python -m repro batch-check ...`` in a fresh interpreter."""
    return run_repro(["batch-check", *arguments], seed)


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def check_backend_parity(workdir):
    print("sweep-gate: backend parity "
          f"({', '.join(BACKENDS)}, full corpus) ...")
    outputs = {}
    for seed, backend in enumerate(BACKENDS, start=1):
        path = os.path.join(workdir, f"backend-{backend}.json")
        batch_check(["--backend", backend, "--jobs", "2",
                     "--stable-json", path], seed=seed)
        outputs[backend] = read(path)
    reference = outputs[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        if outputs[backend] != reference:
            print(f"sweep-gate: FAIL: backend {backend!r} stable JSON "
                  f"differs from {BACKENDS[0]!r}")
            return False
    print(f"sweep-gate: ok: {len(BACKENDS)} backends byte-identical "
          f"({len(reference)} bytes of stable JSON)")
    return True


def check_shard_merge(workdir):
    print("sweep-gate: 4-way shard sweep + merge vs unsharded "
          "reference ...")
    stores = []
    for index, backend in enumerate(SHARD_BACKENDS):
        store = os.path.join(workdir, f"shard-{index}")
        stores.append(store)
        batch_check(["--shard", f"{index}/4", "--jobs", "2",
                     "--backend", backend, "--cache-dir", store],
                    seed=100 + index)
    merged_path = os.path.join(workdir, "merged.json")
    batch_check(["--merge", *stores,
                 "--cache-dir", os.path.join(workdir, "merged-store"),
                 "--stable-json", merged_path], seed=200)
    reference_path = os.path.join(workdir, "reference.json")
    batch_check(["--stable-json", reference_path], seed=300)
    if read(merged_path) != read(reference_path):
        print("sweep-gate: FAIL: merged shard stores do not reproduce "
              "the unsharded reference sweep")
        return False
    print("sweep-gate: ok: merge of 4 shard stores reproduces the "
          "unsharded sweep byte for byte")
    return True


def check_bdd_cache_parity(workdir):
    print("sweep-gate: BDD-cache parity (off vs cold vs warm store) ...")
    store = os.path.join(workdir, "bdd-store")
    outputs = {}
    for seed, (label, arguments) in enumerate((
            ("off", []),
            ("cold", ["--bdd-cache", store]),
            ("warm", ["--bdd-cache", store])), start=500):
        path = os.path.join(workdir, f"bdd-{label}.json")
        batch_check([*arguments, "--jobs", "2", "--stable-json", path],
                    seed=seed)
        outputs[label] = read(path)
    for label in ("cold", "warm"):
        if outputs[label] != outputs["off"]:
            print(f"sweep-gate: FAIL: stable JSON with the {label} BDD "
                  f"cache differs from the cache-free sweep")
            return False
    print("sweep-gate: ok: BDD cache off/cold/warm byte-identical")
    return True


def check_trace_parity(workdir):
    print("sweep-gate: trace parity (untraced vs --trace sweep) ...")
    trace_dir = os.path.join(workdir, "traces")
    outputs = {}
    for seed, (label, arguments) in enumerate((
            ("untraced", []),
            ("traced", ["--trace", trace_dir])), start=700):
        path = os.path.join(workdir, f"trace-{label}.json")
        batch_check([*arguments, "--jobs", "2", "--stable-json", path],
                    seed=seed)
        outputs[label] = read(path)
    if outputs["traced"] != outputs["untraced"]:
        print("sweep-gate: FAIL: stable JSON differs with --trace on; "
              "observability leaked into the results")
        return False
    traces = [name for name in os.listdir(trace_dir)
              if name.endswith(".jsonl")] if os.path.isdir(trace_dir) else []
    if not traces:
        print("sweep-gate: FAIL: --trace produced no per-entry trace "
              "files")
        return False
    print(f"sweep-gate: ok: traced sweep byte-identical to untraced "
          f"({len(traces)} per-entry trace files written)")
    return True


#: The corpus entry the delta leg also names as a base: its registry text
#: differs from the text the engine stores it under.
CORPUS_BASE = "sbuf_send_ctl"


def write_delta_specs(workdir):
    """The specs of the delta leg, as ``.g`` files.

    A base with two edits, then :data:`CORPUS_BASE`'s registry text
    with one edit.  Every edit keeps its base's ``.model`` name -- the
    realistic editor loop, where a saved file is re-checked in place --
    and adds a disconnected two-phase probe cycle on a fresh internal
    signal (the canonical seed-tier shape).  Generation is in-process
    (the writer is deterministic); every *verification* below runs in a
    hash-seed-varied subprocess.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from repro import corpus
        from repro.stg.generators import build_example
        from repro.stg.parser import parse_g
        from repro.stg.stg import SignalKind
        from repro.stg.writer import to_g_string
    finally:
        sys.path.pop(0)

    def probed(g_text, signal):
        edited = parse_g(g_text)
        rising, falling = f"{signal}+", f"{signal}-"
        p0, p1 = f"p_{signal}0", f"p_{signal}1"
        edited.add_signal(signal, SignalKind.INTERNAL,
                          initial_value=False)
        edited.add_place(p0, tokens=1)
        edited.add_place(p1)
        edited.add_transition(rising)
        edited.add_transition(falling)
        for arc in ((p0, rising), (rising, p1),
                    (p1, falling), (falling, p0)):
            edited.add_arc(*arc)
        return to_g_string(edited)

    base = to_g_string(build_example("muller_pipeline", 6))
    entry = corpus.g_text(CORPUS_BASE)
    texts = {"base.g": base,
             "edited-xprobe.g": probed(base, "xprobe"),
             "edited-yprobe.g": probed(base, "yprobe"),
             f"{CORPUS_BASE}.g": entry,
             f"edited-{CORPUS_BASE}.g": probed(entry, "xprobe")}
    paths = []
    for filename, text in texts.items():
        paths.append(os.path.join(workdir, filename))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            handle.write(text)
    return paths


def seeded_recheck(base_path, edit_path, reference, store, prefix, seed):
    """Check ``base_path`` into ``store``, then re-check ``edit_path``
    cold and with ``--base reference``: the warm start must report the
    seed tier and write the cold re-check's stable JSON."""
    cold_path, delta_path = f"{prefix}-cold.json", f"{prefix}-warm.json"
    run_repro([edit_path, "--stable-json", cold_path], seed=seed)
    run_repro([base_path, "--bdd-cache", store], seed=seed + 2)
    stdout = run_repro([edit_path, "--bdd-cache", store,
                        "--base", reference,
                        "--stable-json", delta_path], seed=seed + 4)
    if "delta: tier seed" not in stdout:
        print(f"sweep-gate: FAIL: the --base {reference} re-check did not "
              f"report the seed reuse tier (the warm start never engaged)")
        return False
    if read(delta_path) != read(cold_path):
        print(f"sweep-gate: FAIL: --base {reference} warm-started stable "
              f"JSON differs from the cold re-check")
        return False
    return True


def check_delta_parity(workdir):
    print("sweep-gate: delta parity (cold re-check vs --base "
          "warm-started re-check) ...")
    base_path, edit1_path, edit2_path, entry_path, entry_edit_path = \
        write_delta_specs(workdir)
    store = os.path.join(workdir, "delta-bdd-store")
    if not seeded_recheck(base_path, edit1_path, base_path, store,
                          os.path.join(workdir, "delta"), seed=901):
        return False
    # A second, different edit against the same base: the first edit's
    # run shares the base's model name, so this only seeds if its
    # persistence did not evict the base entry.
    stdout = run_repro([edit2_path, "--bdd-cache", store,
                        "--base", base_path], seed=907)
    if "delta: tier seed" not in stdout:
        print("sweep-gate: FAIL: the base entry did not survive the "
              "first edit's run (second re-check fell back to cold)")
        return False
    if not seeded_recheck(entry_path, entry_edit_path, CORPUS_BASE, store,
                          os.path.join(workdir, "delta-entry"), seed=909):
        return False
    print("sweep-gate: ok: seed-tier warm starts byte-identical to the "
          "cold re-check, base entry survives the edit loop, corpus "
          "entry names resolve")
    return True


#: The chaos leg's dials.  The fault rates and seed are chosen so that
#: over the full corpus every fault class actually fires (the gate
#: asserts it); the retry budget covers the worst per-entry draw; the
#: short lease makes torn-write steals cheap.  All decisions are
#: sha256-seeded, so the leg is reproducible across machines and
#: PYTHONHASHSEED values.
CHAOS_FAULT_SPEC = "crash=0.25,hang=0.25,truncate=0.2,stall=0.2,seed=11"
CHAOS_RETRY_SPEC = "attempts=4,base=0.01,max=0.02,seed=1"
CHAOS_LEASE_DURATION = "0.4"
#: Metrics that must be non-zero after the chaos sweep: one per
#: injected fault class (crash -> error retries, hang -> timeout
#: retries, torn write -> truncated re-issues, renewal stall ->
#: stalled re-issues).
CHAOS_REQUIRED_METRICS = ("fabric.retry.error", "fabric.retry.timeout",
                          "fabric.retry.truncated",
                          "fabric.retry.stalled")


def check_chaos(workdir):
    print("sweep-gate: chaos parity (fault-injected lease sweep vs "
          "clean serial sweep) ...")
    import json

    reference_path = os.path.join(workdir, "chaos-reference.json")
    batch_check(["--backend", "serial", "--stable-json", reference_path],
                seed=1100)
    lease_dir = os.path.join(workdir, "chaos-leases")
    chaos_path = os.path.join(workdir, "chaos-swept.json")
    batch_check(["--backend", "process", "--jobs", "2",
                 "--leases", lease_dir,
                 "--retry", CHAOS_RETRY_SPEC,
                 "--inject-faults", CHAOS_FAULT_SPEC,
                 "--lease-duration", CHAOS_LEASE_DURATION,
                 "--cache-dir", os.path.join(workdir, "chaos-store"),
                 "--stable-json", chaos_path], seed=1101)
    if read(chaos_path) != read(reference_path):
        print("sweep-gate: FAIL: fault-injected lease sweep stable JSON "
              "differs from the clean serial sweep")
        return False
    with open(os.path.join(lease_dir, "metrics.json"),
              encoding="utf-8") as handle:
        metrics = json.load(handle)["metrics"]
    missing = [name for name in CHAOS_REQUIRED_METRICS
               if not int((metrics.get(name) or {}).get("value") or 0)]
    if missing:
        print(f"sweep-gate: FAIL: injected fault class(es) left no "
              f"metric trace: {', '.join(missing)} -- the chaos dice "
              f"never landed, so the sweep proved nothing")
        return False
    counts = {name.rsplit(".", 1)[1]: metrics[name]["value"]
              for name in CHAOS_REQUIRED_METRICS}
    print(f"sweep-gate: ok: chaos sweep byte-identical to the clean "
          f"sweep with every fault class exercised ({counts})")
    return check_two_coordinators(workdir, reference_path)


def check_two_coordinators(workdir, reference_path):
    """Two coordinators started together on one lease directory and one
    run store: both must reproduce the clean sweep, and the store must
    hold exactly one record per entry -- none was computed twice."""
    import json
    from collections import Counter

    print("sweep-gate: two coordinators sharing leases and a store ...")
    lease_dir = os.path.join(workdir, "duo-leases")
    store_dir = os.path.join(workdir, "duo-store")
    paths = [os.path.join(workdir, f"duo-swept-{number}.json")
             for number in range(2)]
    processes = [start_repro(["batch-check", "--backend", "process",
                              "--jobs", "2", "--leases", lease_dir,
                              "--cache-dir", store_dir,
                              "--stable-json", path], seed=1102 + number)
                 for number, path in enumerate(paths)]
    for process in processes:
        finish_repro(process)
    if any(read(path) != read(reference_path) for path in paths):
        print("sweep-gate: FAIL: a coordinator sharing a lease directory "
              "produced stable JSON differing from the clean serial sweep")
        return False
    with open(reference_path, encoding="utf-8") as handle:
        entries = len(json.load(handle)["entries"])
    with open(os.path.join(store_dir, "results.jsonl"),
              encoding="utf-8") as handle:
        stored = Counter((record["name"], record["fingerprint"])
                         for record in map(json.loads, handle))
    if len(stored) != entries or set(stored.values()) != {1}:
        twice = sorted(name for (name, _), count in stored.items()
                       if count > 1)
        print(f"sweep-gate: FAIL: the shared store holds "
              f"{sum(stored.values())} records for {entries} entries "
              f"(computed twice: {', '.join(twice) or 'none'})")
        return False
    print(f"sweep-gate: ok: two coordinators byte-identical to the clean "
          f"sweep, {entries} entries computed once each")
    return True


def main():
    workdir = tempfile.mkdtemp(prefix="repro-sweep-gate-")
    try:
        passed = check_backend_parity(workdir)
        passed = check_shard_merge(workdir) and passed
        passed = check_bdd_cache_parity(workdir) and passed
        passed = check_trace_parity(workdir) and passed
        passed = check_delta_parity(workdir) and passed
        passed = check_chaos(workdir) and passed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not passed:
        return 1
    print("sweep-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
