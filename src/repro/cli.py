"""Command-line interface: ``stg-check`` (also ``python -m repro``).

Check the implementability of an STG given as a ``.g`` file or as one of
the built-in examples.  All verification flows through the public
:mod:`repro.api` facade -- the CLI holds no engine knowledge::

    stg-check handshake
    stg-check muller_pipeline --scale 8
    stg-check path/to/spec.g --explicit
    stg-check vme_read --engine explicit
    stg-check mutex_element --arbitration p_me
    stg-check handshake --checks csc,persistency

The ``batch-check`` mode sweeps the benchmark corpus (:mod:`repro.corpus`)
through the sweep runner (:mod:`repro.runner`) and validates every
per-property verdict against the registry's expected metadata::

    stg-check batch-check                 # every corpus entry
    stg-check batch-check vme_read mutex_element
    stg-check batch-check --engine explicit
    stg-check batch-check --list
    stg-check batch-check --list --json - # machine-readable listing
    stg-check batch-check --jobs 4 --cache-dir .repro-cache
    stg-check batch-check --shard 0/8 --backend serial
    stg-check batch-check --family random_ring:1-100 --json report.json
    stg-check batch-check --cache-dir store --resume
    stg-check batch-check --merge shard-0 shard-1 --cache-dir merged
    stg-check batch-check --cache-dir store --cache-gc entries=1000,age=7d
    stg-check batch-check --bdd-cache bdd-store --checks csc --profile 5

The ``serve`` mode starts the always-warm verification daemon
(:mod:`repro.serve`)::

    stg-check serve --port 8642 --jobs 4
    stg-check serve --port 0 --state-dir .repro-serve   # free port
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import api, obs
from repro.core.encoding import ORDERING_STRATEGIES
from repro.sg.builder import infer_initial_values
from repro.stg.generators import FIXED_EXAMPLES, SCALABLE_FAMILIES, build_example
from repro.stg.parser import read_g_file
from repro.stg.validate import validate_structure


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stg-check",
        description="Check Signal Transition Graph implementability "
                    "(symbolic BDD traversal, Kondratyev et al. 1995).")
    parser.add_argument(
        "specification",
        help="path to a .g file, the name of a built-in example "
             f"({', '.join(sorted(FIXED_EXAMPLES))}; scalable families: "
             f"{', '.join(sorted(SCALABLE_FAMILIES))}), or the "
             "'batch-check' mode sweeping the benchmark corpus")
    parser.add_argument("--scale", type=int, default=None,
                        help="scale parameter for scalable families")
    parser.add_argument("--engine", default=None, metavar="NAME",
                        help="verification engine: symbolic (the "
                             "default) or explicit")
    parser.add_argument("--explicit", action="store_true",
                        help="shorthand for --engine explicit")
    parser.add_argument("--ordering", choices=list(ORDERING_STRATEGIES),
                        default="force",
                        help="BDD variable ordering strategy (symbolic only)")
    parser.add_argument("--checks", default=None, metavar="NAMES",
                        help="comma-separated subset of property checks to "
                             f"run ({', '.join(api.available_checks())}); "
                             "default: every check but liveness")
    parser.add_argument("--arbitration", nargs="*", default=[],
                        metavar="PLACE",
                        help="places to treat as arbitration points "
                             "(validated against the STG's actual places)")
    parser.add_argument("--bdd-cache", metavar="DIR", dest="bdd_cache",
                        default=None,
                        help="persist the reachable-state BDD under DIR "
                             "(symbolic engine); a later run on the same "
                             "specification -- e.g. with a different "
                             "--checks selection -- loads it and skips "
                             "the traversal entirely")
    parser.add_argument("--base", metavar="REF", default=None,
                        help="incremental re-check: warm-start the "
                             "traversal from the cached base entry REF "
                             "(a .g file path, a benchmark-corpus entry "
                             "name, or a 64-hex reachability "
                             "fingerprint); requires --bdd-cache, and the "
                             "summary reports the reuse tier -- verdicts "
                             "are byte-identical to a cold run")
    parser.add_argument("--stable-json", metavar="PATH",
                        dest="stable_json_path", default=None,
                        help="write the timing- and provenance-free "
                             "stable view of this check to PATH ('-' for "
                             "stdout): byte-identical across cold and "
                             "--base warm-started runs of the same "
                             "specification")
    parser.add_argument("--trace", metavar="DIR", dest="trace_dir",
                        default=None,
                        help="write a JSONL trace of the run (spans for "
                             "parse/encoding/ordering/traversal/checks/"
                             "synthesis, per-iteration frontier sizes, "
                             "BDD cache deltas) under DIR; inspect with "
                             "tools/trace_report.py")
    parser.add_argument("--infer-initial-values", action="store_true",
                        help="infer missing initial signal values before "
                             "checking")
    parser.add_argument("--validate-only", action="store_true",
                        help="only run the structural validation")
    parser.add_argument("--liveness", action="store_true",
                        help="additionally report deadlocks and reversibility "
                             "(symbolic engine only)")
    parser.add_argument("--synthesize", action="store_true",
                        help="derive and print the complex-gate equations "
                             "when the specification is gate-implementable")
    return parser


def build_batch_check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stg-check batch-check",
        description="Sweep the benchmark corpus (repro.corpus) through the "
                    "parallel sharded runner (repro.runner) and validate "
                    "every per-property verdict against the registry's "
                    "expected metadata.")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="corpus entries to check (default: all)")
    parser.add_argument("--list", action="store_true", dest="list_entries",
                        help="list the corpus entries with their expected-"
                             "verdict metadata and exit (add --json PATH "
                             "for a machine-readable listing)")
    parser.add_argument("--engine", default="symbolic", metavar="NAME",
                        help="verification engine: symbolic (the "
                             "default) or explicit")
    parser.add_argument("--ordering", choices=list(ORDERING_STRATEGIES),
                        default="force",
                        help="BDD variable ordering strategy (symbolic only)")
    parser.add_argument("--checks", default=None, metavar="NAMES",
                        help="comma-separated subset of property checks to "
                             "run per entry (default: every check); the "
                             "subset is batched over each entry's shared "
                             "intermediates and keys the result cache")
    parser.add_argument("--family", action="append", default=[],
                        metavar="FAMILY:SCALES", dest="families",
                        help="additionally sweep a scalable family over a "
                             "scale range, e.g. random_ring:1-100 or "
                             "muller_pipeline:6 (repeatable)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="number of concurrent workers (default: 1)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="execution backend: process (worker pool, the "
                             "default; the only one that runs entries in "
                             "parallel and kills an entry past "
                             "--timeout) or serial (in-process loop); "
                             "both produce byte-identical stable "
                             "results")
    parser.add_argument("--shard", default="0/1", metavar="I/N",
                        help="run only shard I of an N-way round-robin "
                             "partition of the sweep (default: 0/1)")
    parser.add_argument("--leases", metavar="DIR", dest="lease_dir",
                        default=None,
                        help="coordinate the sweep through work-stealing "
                             "leases journalled under DIR "
                             "(repro.fabric): entries are claimed "
                             "longest-job-first, leases renew while the "
                             "entry computes, and an expired lease (dead "
                             "or wedged worker) makes its entry "
                             "claimable again; retryable failures are "
                             "re-issued per --retry; SIGINT/SIGTERM "
                             "drain gracefully keeping finished work")
    parser.add_argument("--retry", metavar="SPEC", dest="retry_spec",
                        default=None,
                        help="retry policy for the lease coordinator "
                             "(requires --leases): comma-separated "
                             "attempts=N, base=SECONDS, max=SECONDS, "
                             "multiplier=X, jitter=F, seed=N, e.g. "
                             "attempts=4,base=0.05,max=1; error and "
                             "timeout records retry with seeded-jitter "
                             "exponential backoff, verdicts never do "
                             "(default: attempts=3)")
    parser.add_argument("--inject-faults", metavar="SPEC",
                        dest="fault_spec", default=None,
                        help="deterministic chaos testing (requires "
                             "--leases): comma-separated rates per fault "
                             "kind plus seed=N, e.g. crash=0.2,hang=0.1,"
                             "truncate=0.1,stall=0.1,seed=7; injected "
                             "worker crashes, entry hangs, torn store "
                             "writes and lease-renewal stalls are all "
                             "recovered by retry/re-issue -- stable JSON "
                             "stays byte-identical to a clean run")
    parser.add_argument("--lease-duration", type=float, default=30.0,
                        metavar="SECONDS", dest="lease_duration",
                        help="validity window of one lease claim/renewal "
                             "(requires --leases; default: 30); in-flight "
                             "leases renew every quarter duration")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-entry timeout, checked cooperatively "
                             "on every backend; the process backend with "
                             "--jobs >= 2 also terminates a worker that "
                             "stops checking it")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persist per-entry results under DIR and skip "
                             "entries whose content and engine config are "
                             "unchanged (reported as 'cached')")
    parser.add_argument("--bdd-cache", metavar="DIR", dest="bdd_cache",
                        default=None,
                        help="persist each entry's reachable-state BDD "
                             "under DIR (repro.cache.BDDStore): matching "
                             "entries skip the traversal on later sweeps "
                             "-- even ones asking different --checks; "
                             "verdicts are byte-identical with and "
                             "without the store")
    parser.add_argument("--trace", metavar="DIR", dest="trace_dir",
                        default=None,
                        help="write one JSONL trace file per swept entry "
                             "(keyed by the entry's content fingerprint) "
                             "under DIR; an execution knob like "
                             "--bdd-cache: excluded from fingerprints, "
                             "stable JSON is byte-identical with and "
                             "without it; aggregate the files with "
                             "tools/trace_report.py")
    parser.add_argument("--profile", type=int, default=None, metavar="N",
                        help="after the sweep, print the N slowest entries "
                             "with their traversal statistics (any "
                             "backend; durations of cached entries are "
                             "the original compute times)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir: recompute everything and "
                             "do not touch the store")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep from the partial "
                             "state in --cache-dir: repair the store file "
                             "if the kill truncated it, then compute only "
                             "the entries whose fingerprints are missing "
                             "(the rest report as 'cached')")
    parser.add_argument("--merge", nargs="+", metavar="DIR",
                        dest="merge_dirs", default=None,
                        help="merge mode: combine the shard run stores in "
                             "the given directories into --cache-dir and "
                             "report the merged sweep instead of executing "
                             "anything (verdict records win fingerprint "
                             "conflicts; per-entry provenance is kept)")
    parser.add_argument("--cache-gc", metavar="SPEC", dest="cache_gc",
                        default=None,
                        help="after the sweep (or merge), evict old records "
                             "from the --cache-dir store; SPEC is "
                             "entries=N and/or age=AGE[s|m|h|d], e.g. "
                             "entries=1000,age=7d")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        default=None,
                        help="write the full sweep result (same schema as "
                             "the run store, header records engine/backend/"
                             "shard) as JSON to PATH, or '-' for stdout; "
                             "with --list, write the corpus listing instead")
    parser.add_argument("--stable-json", metavar="PATH",
                        dest="stable_json_path", default=None,
                        help="write the timing- and provenance-free stable "
                             "view of the sweep result to PATH ('-' for "
                             "stdout): byte-identical across backends, job "
                             "counts, cache states and shard merges")
    parser.add_argument("--write-dir", metavar="DIR", default=None,
                        help="additionally materialise the .g files of the "
                             "checked entries under DIR (shard- and "
                             "family-aware: exactly the swept tasks)")
    return parser


def load_specification(name: str, scale: Optional[int]):
    """Load a ``.g`` file or instantiate a built-in example.

    Anything that looks like a path (a ``.g`` suffix or a directory
    separator) is treated as a file even when missing, so the user gets
    the parser's corpus-aware not-found message instead of
    "unknown example".
    """
    looks_like_path = (name.endswith(".g") or os.sep in name
                       or bool(os.altsep and os.altsep in name))
    if os.path.exists(name) or looks_like_path:
        return read_g_file(name)
    return build_example(name, scale)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``stg-check`` console script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "batch-check":
        return batch_check_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve import serve_main

        return serve_main(argv[1:])
    parser = build_argument_parser()
    arguments = parser.parse_args(argv)
    try:
        stg = load_specification(arguments.specification, arguments.scale)
    except Exception as error:  # pragma: no cover - user input path
        parser.error(str(error))
        return 2

    validation = validate_structure(stg)
    if validation.issues:
        print(validation)
    if arguments.validate_only:
        return 0 if validation.valid else 1
    if not validation.valid:
        print("structural validation failed; aborting the behavioural check")
        return 1

    if arguments.infer_initial_values or not stg.has_complete_initial_values():
        stg.set_initial_values(infer_initial_values(stg))

    if (arguments.explicit and arguments.engine
            and arguments.engine != "explicit"):
        parser.error(f"--explicit conflicts with "
                     f"--engine {arguments.engine}")
        return 2
    engine = arguments.engine or (
        "explicit" if arguments.explicit else "symbolic")
    try:
        config = api.EngineConfig(
            engine=engine,
            ordering=arguments.ordering,
            arbitration_places=tuple(arguments.arbitration),
            bdd_cache_dir=arguments.bdd_cache,
            trace_dir=arguments.trace_dir)
    except api.ApiError as error:
        parser.error(str(error))  # exits with status 2
        return 2

    base = arguments.base
    if base is not None:
        if not arguments.bdd_cache:
            parser.error("--base requires --bdd-cache (the store the "
                         "base entry lives in)")
            return 2
        if os.path.exists(base) or base.endswith(".g"):
            try:
                base = read_g_file(base)
            except Exception as error:
                parser.error(f"--base: {error}")
                return 2
        # otherwise: a corpus entry name or raw fingerprint -- the
        # facade resolves (and rejects) those.

    # The tracing context covers the whole run -- main check, liveness
    # extras and synthesis all land in one trace file under --trace.
    with obs.tracing(config.trace_dir, name=stg.name,
                     meta={"engine": engine}):
        try:
            outcome = api.run(stg, config, checks=arguments.checks,
                              base=base)
        except api.ApiError as error:
            parser.error(str(error))  # exits with status 2
            return 2
        report = outcome.report
        print(report.summary())

        if arguments.liveness or arguments.synthesize:
            _run_extras(stg, arguments, config, report, outcome.pipeline)

    if arguments.stable_json_path:
        _write_json(_stable_check_dict(stg, config, arguments.checks,
                                       outcome),
                    arguments.stable_json_path)
    if arguments.checks is not None:
        # A subset run classifies as 'partial' (the class is undecided);
        # succeed iff every verdict that was actually checked holds.
        return 0 if all(v.holds for v in report.verdicts) else 1
    return 0 if report.io_implementable else 1


def _stable_check_dict(stg, config: api.EngineConfig, checks, outcome):
    """The stable view of one single-specification check.

    Shaped exactly like one entry of a ``batch-check --stable-json``
    sweep (an :class:`~repro.runner.results.EntryResult` stable dict,
    keyed by the task content fingerprint), so cold runs, ``--base``
    warm-started runs and daemon verdicts of the same specification all
    byte-compare.  ``base_fingerprint`` is an execution knob -- it never
    reaches the fingerprint.
    """
    from repro.api.checks import resolve_checks
    from repro.runner.plan import SweepTask
    from repro.runner.results import EntryResult
    from repro.stg.writer import to_g_string

    # None stays None (the engine default set), matching how
    # batch-check builds its tasks -- an explicit subset resolves to
    # the same tuple the sweep planner would fingerprint.
    selected = None if checks is None else resolve_checks(checks)
    task = SweepTask(name=stg.name, g_text=to_g_string(stg),
                     config=config, checks=selected)
    result = EntryResult(name=stg.name, status="ok", engine=config.engine,
                         fingerprint=task.fingerprint,
                         report=outcome.report.to_dict(),
                         traversal=outcome.traversal)
    return result.stable_dict()


def _run_extras(stg, arguments, config: api.EngineConfig,
                report, pipeline) -> None:
    """Optional liveness analysis and logic derivation (symbolic engine).

    When the main check already ran symbolically its pipeline is reused,
    so the reachable-state BDD is not recomputed; after a run on another
    engine a fresh symbolic pipeline (one traversal) is dispatched
    through the facade with an empty check selection -- the chain builds
    lazily on first access.
    """
    from repro.synthesis import synthesize_complex_gates
    from repro.synthesis.functions import SynthesisError

    if pipeline is None:
        symbolic = config.with_overrides(engine="symbolic")
        pipeline = api.run(stg, symbolic, checks=()).pipeline
    if arguments.liveness:
        print(f"  liveness: {pipeline.deadlock_freedom()}; "
              f"{pipeline.reversibility()}")
    if arguments.synthesize:
        if not report.gate_implementable:
            print("  synthesis skipped: the specification is not "
                  "gate-implementable")
            return
        try:
            gates = synthesize_complex_gates(pipeline.encoding,
                                             pipeline.reached)
        except SynthesisError as error:
            print(f"  synthesis failed: {error}")
            return
        print("  derived complex-gate equations:")
        for gate in gates.values():
            print(f"    {gate}")


# ----------------------------------------------------------------------
# batch-check: sweep the benchmark corpus through the runner
# ----------------------------------------------------------------------
def batch_check_main(argv: List[str]) -> int:
    """Thin front-end over :mod:`repro.runner` for corpus sweeps."""
    from repro import corpus
    from repro.runner import (
        PlanError,
        RunStore,
        ShardSpec,
        SweepPlan,
        SweepRunner,
        backends,
        parse_family_spec,
        parse_gc_spec,
    )

    parser = build_batch_check_parser()
    arguments = parser.parse_args(argv)

    if arguments.list_entries:
        if arguments.json_path:
            _write_json(_corpus_listing_dict(), arguments.json_path)
        else:
            _print_corpus_listing()
        return 0

    if (arguments.resume or arguments.merge_dirs or arguments.cache_gc) \
            and not arguments.cache_dir:
        parser.error("--resume, --merge and --cache-gc require --cache-dir")
    if arguments.no_cache and (arguments.resume or arguments.merge_dirs
                               or arguments.cache_gc):
        parser.error("--no-cache conflicts with --resume/--merge/--cache-gc")
    for directory in (arguments.merge_dirs or ()):
        if not os.path.isdir(directory):
            parser.error(f"--merge: no such run-store directory "
                         f"{directory!r}")
    if arguments.lease_dir is None:
        if arguments.retry_spec is not None:
            parser.error("--retry requires --leases (the retry policy "
                         "belongs to the lease coordinator)")
        if arguments.fault_spec is not None:
            parser.error("--inject-faults requires --leases (only the "
                         "lease coordinator recovers injected faults)")
    elif arguments.merge_dirs is not None:
        parser.error("--leases conflicts with --merge (a merge executes "
                     "nothing, so there is nothing to lease)")

    retry_policy = None
    if arguments.lease_dir is not None:
        from repro.fabric import RetrySpecError, parse_retry_spec

        try:
            retry_policy = (parse_retry_spec(arguments.retry_spec)
                            if arguments.retry_spec is not None else None)
        except RetrySpecError as error:
            parser.error(f"--retry: {error}")
        if arguments.lease_duration <= 0:
            parser.error(f"--lease-duration must be positive, got "
                         f"{arguments.lease_duration}")

    try:
        config = api.EngineConfig(
            engine=arguments.engine,
            ordering=arguments.ordering,
            timeout=arguments.timeout,
            bdd_cache_dir=arguments.bdd_cache,
            trace_dir=arguments.trace_dir,
            fault_plan=arguments.fault_spec)
        checks = None
        if arguments.checks is not None:
            from repro.api.checks import resolve_checks

            checks = resolve_checks(arguments.checks)
        plan = SweepPlan(
            names=arguments.names or corpus.names(),
            families=[parse_family_spec(spec)
                      for spec in arguments.families],
            config=config,
            checks=checks,
            jobs=arguments.jobs,
            shard=ShardSpec.parse(arguments.shard),
            backend=arguments.backend)
        if arguments.backend is not None:
            backends.get(arguments.backend)  # unknown name -> usage error
        gc_keywords = (parse_gc_spec(arguments.cache_gc)
                       if arguments.cache_gc else None)
        plan.tasks()  # expand now: bad entry/family names and scales
    except (PlanError, api.ApiError, corpus.CorpusError, ValueError) as error:
        parser.error(str(error))  # become usage errors, not tracebacks
        return 2

    if arguments.write_dir:
        _write_swept_tasks(plan, arguments.write_dir)

    store = None
    if arguments.cache_dir and not arguments.no_cache:
        store = RunStore(arguments.cache_dir)

    coordinator = None
    if arguments.merge_dirs is not None:
        sweep = _merge_sweep(store, arguments.merge_dirs, plan)
    else:
        if arguments.resume and store.skipped_lines:
            store.compact()  # repair what the killed sweep left behind
        if arguments.lease_dir is not None:
            from repro.fabric import LeaseCoordinator

            coordinator = LeaseCoordinator(
                plan, leases=arguments.lease_dir, store=store,
                policy=retry_policy,
                lease_duration=arguments.lease_duration)
            sweep = coordinator.run()
        else:
            sweep = SweepRunner(plan, store=store).run()

    width = max((len(result.name) for result in sweep), default=1)
    for result in sweep:
        _print_entry_result(result, width)
    print(f"batch-check: {len(sweep)} entries, "
          f"{sweep.matching} matching the registry metadata, "
          f"{sweep.mismatching} mismatching, {sweep.errors} errors, "
          f"{sweep.cached} cached "
          f"[engine: {plan.engine}, backend: {sweep.backend}, "
          f"jobs: {plan.jobs}, shard: {plan.shard}]")
    if coordinator is not None:
        _print_fabric_summary(coordinator)

    if arguments.profile:
        _print_profile(sweep, arguments.profile)

    if gc_keywords:
        evicted = store.gc(**gc_keywords)
        print(f"cache-gc: evicted {evicted} of {evicted + len(store)} "
              f"records from {store.directory}")

    if arguments.json_path:
        _write_json(sweep.to_json_dict(), arguments.json_path)
    if arguments.stable_json_path:
        _write_json(sweep.stable_json_dict(), arguments.stable_json_path)
    return 0 if sweep.succeeded else 1


def _merge_sweep(store, merge_dirs: List[str], plan):
    """The ``--merge`` verb: combine shard stores, report the merged sweep.

    Every source store is merged into ``store`` (the ``--cache-dir``
    destination), then the plan's tasks are answered entirely from the
    merged records -- nothing is executed.  Entries no shard computed (or
    that only failed) surface as ``error`` results, so a merge of
    incomplete shards fails loudly instead of silently shrinking the
    sweep.  Each served entry keeps the provenance stamped by the shard
    that computed it.
    """
    from repro.runner import EntryResult, SweepResult

    adopted_total = 0
    for directory in merge_dirs:
        adopted = store.merge(directory, compact=False)
        adopted_total += adopted
        print(f"merge: adopted {adopted} records from {directory}")
    if adopted_total:
        store.compact()  # once, after every source is in

    results = []
    for task in plan.shard_tasks():
        hit = store.lookup(task.name, task.fingerprint)
        if hit is None:
            hit = EntryResult(
                name=task.name, status="error", engine=task.engine,
                fingerprint=task.fingerprint,
                error="no verdict for this fingerprint in the merged "
                      "stores (shard missing or entry failed everywhere)")
        results.append(hit)
    return SweepResult(engine=plan.engine, jobs=plan.jobs,
                       shard=str(plan.shard), backend="merge",
                       results=results)


def _print_fabric_summary(coordinator) -> None:
    """One line of lease-fabric bookkeeping after a ``--leases`` sweep.

    Scheduling telemetry only (claims, steals, retries); the full
    snapshot lands in ``metrics.json`` inside the lease directory.
    """
    counters = {name: snap.get("value") or 0
                for name, snap in coordinator.metrics.snapshot().items()}
    retries = sum(value for name, value in counters.items()
                  if name.startswith("fabric.retry."))
    print(f"fabric: {counters.get('fabric.lease.claims', 0)} leases "
          f"claimed, {counters.get('fabric.lease.reclaims', 0)} stolen "
          f"after expiry, {retries} re-issues "
          f"[holder: {coordinator.holder}, "
          f"drained: {'yes' if coordinator.draining else 'no'}]")


def _write_json(payload: dict, path: str) -> None:
    """Write a JSON payload to ``path`` (``-`` = stdout)."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _write_swept_tasks(plan, directory: str) -> None:
    """Materialise the ``.g`` text of exactly the swept tasks.

    Task-based (not registry-based), so family instances are included and
    a ``--shard`` run writes only its own slice.
    """
    os.makedirs(directory, exist_ok=True)
    for task in plan.shard_tasks():
        path = os.path.join(directory, f"{task.name}.g")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(task.g_text)


def _corpus_listing_dict() -> dict:
    """The machine-readable ``--list --json`` payload.

    One record per corpus entry (name, source, family/scale provenance,
    interface sizes, expected verdicts) plus the scalable families a
    ``--family`` sweep can draw from -- so external tooling reads this
    instead of scraping the text table.
    """
    from repro import corpus

    return {
        "entries": [corpus.entry(name).listing_dict()
                    for name in corpus.names()],
        "families": [
            {"name": family.name,
             "expected": {key: _json_metadata_value(value)
                          for key, value in family.expected.items()}}
            for family in map(corpus.family, corpus.FAMILIES)],
    }


def _json_metadata_value(value: object) -> object:
    return str(value) if not isinstance(value, (bool, int, str)) else value


def _print_corpus_listing() -> None:
    """One entry per block: name, source, expected verdicts, description."""
    from repro import corpus

    width = max(len(name) for name in corpus.names())
    for name in corpus.names():
        item = corpus.entry(name)
        expected = " ".join(
            f"{key}={_metadata_value(value)}"
            for key, value in item.expected.items())
        print(f"{name:<{width}}  [{item.source}] {item.description}")
        print(f"{'':<{width}}  expected: {expected}")


def _metadata_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _print_profile(sweep, count: int) -> None:
    """The ``--profile N`` report: the N slowest entries with their stats.

    Backend-independent: it reads the per-entry durations and traversal
    statistics every backend records, formatted through
    :func:`repro.obs.report.format_traversal` (the same stats layer the
    trace reports use).  A cached entry shows the duration of the run
    that originally computed it.
    """
    from repro.obs.report import format_traversal

    slowest = sorted(sweep, key=lambda result: result.duration,
                     reverse=True)[:max(count, 0)]
    if not slowest:
        return
    width = max(len(result.name) for result in slowest)
    print(f"profile: {len(slowest)} slowest entries")
    for result in slowest:
        line = (f"  {result.name:<{width}}  {result.duration:8.3f}s "
                f"[{result.display_status}]")
        formatted = format_traversal(result.traversal)
        if formatted:
            line += f" {formatted}"
        print(line)


def _print_entry_result(result, width: int) -> None:
    report = result.report_object()
    if report is None:  # error or timeout: no verdicts to show
        print(f"{result.name:<{width}}  "
              f"[{result.display_status}] {result.error}")
        return
    verdicts = (f"states={report.num_states:<6d} "
                f"consistent={_flag(report.consistent)} "
                f"persistent={_flag(report.output_persistent)} "
                f"csc={_flag(report.csc)} "
                f"deadlock_free={_flag(report.deadlock_free)}")
    status = ("MISMATCH" if result.status == "mismatch"
              else result.display_status)
    print(f"{result.name:<{width}}  {verdicts} "
          f"{str(report.classification):<38} [{status}]")
    for problem in result.mismatches:
        print(f"{'':<{width}}    {problem}")


def _flag(value: Optional[bool]) -> str:
    return "-" if value is None else ("yes" if value else "no ")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
