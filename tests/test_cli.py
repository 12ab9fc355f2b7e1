"""Tests for the stg-check command-line interface."""

import json

import pytest

from repro import corpus
from repro.cli import (
    build_argument_parser,
    build_batch_check_parser,
    load_specification,
    main,
)
from repro.stg import write_g
from repro.stg.generators import handshake


class TestArgumentParser:
    def test_defaults(self):
        arguments = build_argument_parser().parse_args(["handshake"])
        assert arguments.specification == "handshake"
        assert arguments.engine == "symbolic"
        assert arguments.ordering == "force"
        assert arguments.scale is None

    def test_scale_and_flags(self):
        arguments = build_argument_parser().parse_args(
            ["muller_pipeline", "--scale", "4", "--engine", "explicit",
             "--ordering", "declaration", "--arbitration", "p_me"])
        assert arguments.scale == 4
        assert arguments.engine == "explicit"
        assert arguments.ordering == "declaration"
        assert arguments.arbitration == ["p_me"]

    def test_timeout_help_says_every_backend_honours_it(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no line wrapping
        text = " ".join(build_batch_check_parser().format_help().split())
        assert ("--timeout SECONDS per-entry timeout, checked cooperatively "
                "on every backend; the process backend with --jobs >= 2 "
                "also terminates a worker that stops checking it") in text
        assert "enforceable" not in text


class TestLoadSpecification:
    def test_load_builtin_example(self):
        assert load_specification("handshake", None).name == "handshake"

    def test_load_scalable_family(self):
        stg = load_specification("muller_pipeline", 3)
        assert stg.name == "muller_pipeline_3"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.g"
        write_g(handshake(), str(path))
        assert set(load_specification(str(path), None).signals) == {"r", "a"}


class TestMain:
    def test_implementable_example_exit_code_zero(self, capsys):
        assert main(["handshake"]) == 0
        output = capsys.readouterr().out
        assert "gate-implementable" in output

    def test_explicit_engine(self, capsys):
        assert main(["handshake", "--engine", "explicit"]) == 0
        assert "explicit check" in capsys.readouterr().out

    def test_scalable_family_via_cli(self, capsys):
        assert main(["muller_pipeline", "--scale", "3"]) == 0
        assert "muller_pipeline_3" in capsys.readouterr().out

    def test_failing_example_exit_code_one(self, capsys):
        assert main(["inconsistent"]) == 1
        assert "not SI-implementable" in capsys.readouterr().out

    def test_arbitration_option(self, capsys):
        assert main(["mutex_element", "--arbitration", "p_me"]) == 0

    def test_mutex_without_arbitration_fails(self):
        assert main(["mutex_element"]) == 1

    def test_validate_only(self, capsys):
        assert main(["handshake", "--validate-only"]) == 0

    def test_file_input_with_inferred_values(self, tmp_path, capsys):
        stg = handshake()
        stg._initial_values.clear()
        path = tmp_path / "noval.g"
        write_g(stg, str(path))
        assert main([str(path)]) == 0

    def test_liveness_option(self, capsys):
        assert main(["handshake", "--liveness"]) == 0
        output = capsys.readouterr().out
        assert "deadlock-free" in output
        assert "reversible" in output

    def test_synthesize_option(self, capsys):
        assert main(["handshake", "--synthesize"]) == 0
        assert "a = r" in capsys.readouterr().out

    def test_synthesize_skipped_without_csc(self, capsys):
        # csc_violation is I/O-implementable (exit code 0) but not
        # gate-implementable, so no equations can be derived.
        assert main(["csc_violation", "--synthesize"]) == 0
        assert "synthesis skipped" in capsys.readouterr().out

    def test_unknown_engine_exits_2_with_did_you_mean(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["handshake", "--engine", "symbolc"])
        assert excinfo.value.code == 2
        assert "did you mean: symbolic" in capsys.readouterr().err

    def test_checks_subset_runs_only_selected_checks(self, capsys):
        assert main(["handshake", "--checks", "csc,persistency"]) == 0
        output = capsys.readouterr().out
        assert "complete state coding" in output
        assert "signal persistency" in output
        assert "consistent state assignment" not in output
        # basics unchecked: the class is explicitly partial, not omitted
        assert "classification: partial" in output

    def test_checks_subset_exit_code_reflects_selected_verdicts(self):
        # csc_violation fails CSC (exit 1 for a csc-only run) but passes
        # persistency (exit 0), even though the full-run exit code is 0.
        assert main(["csc_violation", "--checks", "csc"]) == 1
        assert main(["csc_violation", "--checks", "persistency"]) == 0

    @pytest.mark.parametrize("check", ["cscx", "cssc"])
    def test_unknown_check_exits_2_with_did_you_mean(self, capsys, check):
        with pytest.raises(SystemExit) as excinfo:
            main(["handshake", "--checks", check])
        assert excinfo.value.code == 2
        assert "did you mean: csc" in capsys.readouterr().err

    def test_unknown_arbitration_place_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mutex_element", "--arbitration", "p_mee"])
        assert excinfo.value.code == 2
        assert "did you mean: p_me" in capsys.readouterr().err


class TestBatchCheck:
    """The corpus sweep: ``stg-check batch-check``."""

    def test_full_sweep_matches_registry(self, capsys):
        assert main(["batch-check"]) == 0
        output = capsys.readouterr().out
        for name in corpus.names():
            assert name in output
        assert "0 mismatching" in output
        assert "MISMATCH" not in output

    def test_selected_entries_only(self, capsys):
        assert main(["batch-check", "vme_read", "handshake"]) == 0
        output = capsys.readouterr().out
        assert "vme_read" in output and "handshake" in output
        assert "mutex_element" not in output
        assert "2 entries" in output

    def test_explicit_engine(self, capsys):
        assert main(["batch-check", "handshake", "choice_controller",
                     "--engine", "explicit"]) == 0
        assert "engine: explicit" in capsys.readouterr().out

    def test_list_mode(self, capsys):
        assert main(["batch-check", "--list"]) == 0
        output = capsys.readouterr().out
        for name in corpus.names():
            assert name in output

    def test_unknown_entry_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch-check", "no_such_entry"])
        assert "available" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, right", [
        (["batch-check", "mutx_element"], "mutex_element"),
        (["handshak"], "handshake"),
        (["batch-check", "--family", "muler_pipeline:1-2"],
         "muller_pipeline"),
        (["batch-check", "handshake", "--checks", "cscx"], "csc"),
        (["batch-check", "handshake", "--checks", "cssc"], "csc"),
    ], ids=["corpus-entry", "example", "family", "check", "check-cssc"])
    def test_unknown_entry_exits_2_with_did_you_mean(self, capsys, argv,
                                                     right):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"did you mean: {right}" in capsys.readouterr().err

    def test_list_mode_prints_expected_metadata(self, capsys):
        assert main(["batch-check", "--list"]) == 0
        output = capsys.readouterr().out
        assert "expected:" in output
        assert "classification=gate-implementable" in output
        assert "[table1]" in output and "[random]" in output

    def test_write_dir_materialises_files(self, tmp_path, capsys):
        assert main(["batch-check", "handshake",
                     "--write-dir", str(tmp_path)]) == 0
        path = tmp_path / "handshake.g"
        assert path.exists()
        assert path.read_text() == corpus.g_text("handshake")

    def test_unknown_batch_engine_exits_2_with_did_you_mean(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake", "--engine", "explcit"])
        assert excinfo.value.code == 2
        assert "did you mean: explicit" in capsys.readouterr().err

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["batch-check", "--list", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload["entries"]}
        assert set(by_name) == set(corpus.names())
        # Expected verdicts ship as JSON values, classification as text.
        vme = by_name["vme_read"]
        assert vme["expected"]["csc"] is False
        assert vme["expected"]["classification"] == "I/O-implementable"
        assert vme["family"] is None
        # Family-derived entries carry their provenance.
        pipeline = by_name["muller_pipeline_3"]
        assert pipeline["family"] == "muller_pipeline"
        assert pipeline["scale"] == 3
        mutex = by_name["mutex_element"]
        assert mutex["arbitration_places"] == ["p_me"]
        # The scalable families a --family sweep can draw from.
        family_names = [family["name"] for family in payload["families"]]
        assert "random_ring" in family_names

    def test_list_json_to_file(self, tmp_path, capsys):
        path = tmp_path / "listing.json"
        assert main(["batch-check", "--list", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert len(payload["entries"]) == len(corpus.names())


class TestBatchCheckRunnerFlags:
    """The runner-backed flags: --jobs, --shard, --cache-dir, --json."""

    SELECTION = ["handshake", "vme_read", "mutex_element", "inconsistent"]

    @pytest.mark.smoke
    def test_parallel_sweep_matches_sequential_output(self, capsys):
        assert main(["batch-check", *self.SELECTION]) == 0
        sequential = capsys.readouterr().out
        assert main(["batch-check", *self.SELECTION, "--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        strip = (lambda text: "\n".join(
            line for line in text.splitlines()
            if not line.startswith("batch-check:")))
        assert strip(sequential) == strip(parallel)
        assert "jobs: 3" in parallel

    def test_shard_selects_a_strict_subset(self, capsys):
        assert main(["batch-check", "--shard", "0/8"]) == 0
        output = capsys.readouterr().out
        shard_size = len(corpus.names()) // 8 + \
            (1 if len(corpus.names()) % 8 else 0)
        assert f"{shard_size} entries" in output
        assert "shard: 0/8" in output

    def test_invalid_shard_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "--shard", "eight"])
        assert excinfo.value.code == 2

    def test_cache_roundtrip_reports_cached_entries(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["batch-check", "handshake", "vme_read",
                     "--cache-dir", cache]) == 0
        assert "0 cached" in capsys.readouterr().out
        assert main(["batch-check", "handshake", "vme_read",
                     "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert "2 cached" in second
        assert "[cached]" in second

    def test_no_cache_bypasses_the_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["batch-check", "handshake",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["batch-check", "handshake", "--cache-dir", cache,
                     "--no-cache"]) == 0
        assert "0 cached" in capsys.readouterr().out

    def test_json_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["batch-check", "handshake", "vme_read",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["total"] == 2
        assert payload["mismatching"] == 0
        names = [entry["name"] for entry in payload["entries"]]
        assert names == ["handshake", "vme_read"]
        assert payload["entries"][0]["report"]["num_states"] == 4

    def test_json_report_to_stdout(self, capsys):
        assert main(["batch-check", "handshake", "--json", "-"]) == 0
        output = capsys.readouterr().out
        start = output.index("{")
        payload = json.loads(output[start:])
        assert payload["entries"][0]["status"] == "ok"

    @pytest.mark.smoke
    def test_family_scale_range(self, capsys):
        assert main(["batch-check", "handshake",
                     "--family", "random_ring:1-4", "--jobs", "2"]) == 0
        output = capsys.readouterr().out
        assert "random_ring@1" in output and "random_ring@4" in output
        assert "5 entries" in output

    def test_invalid_family_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "--family", "random_ring"])
        assert excinfo.value.code == 2

    def test_unknown_family_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "--family", "no_such_family:1-3"])
        assert excinfo.value.code == 2
        assert "no_such_family" in capsys.readouterr().err

    def test_out_of_range_family_scale_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "--family", "muller_pipeline:0"])
        assert excinfo.value.code == 2
        assert "rejected scale 0" in capsys.readouterr().err

    def test_write_dir_is_shard_and_family_aware(self, tmp_path, capsys):
        assert main(["batch-check", "handshake", "vme_read",
                     "--family", "random_ring:1-2",
                     "--shard", "0/2",
                     "--write-dir", str(tmp_path)]) == 0
        # Shard 0/2 of [handshake, vme_read, @1, @2] = positions 0 and 2.
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == ["handshake.g", "random_ring@1.g"]
        assert (tmp_path / "handshake.g").read_text() == \
            corpus.g_text("handshake")


class TestBatchCheckBackends:
    """The execution-backend flag and its error paths."""

    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_every_builtin_backend_sweeps(self, backend, capsys):
        assert main(["batch-check", "handshake", "vme_read",
                     "--backend", backend, "--jobs", "2"]) == 0
        assert f"backend: {backend}" in capsys.readouterr().out

    @pytest.mark.parametrize("backend, right", [("proces", "process"),
                                                ("serail", "serial")])
    def test_unknown_backend_exits_2_with_did_you_mean(self, capsys,
                                                       backend, right):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake", "--backend", backend])
        assert excinfo.value.code == 2
        assert f"did you mean: {right}" in capsys.readouterr().err

    def test_thread_backend_exits_2_naming_the_two_backends(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake", "--backend", "thread"])
        assert excinfo.value.code == 2
        assert ("unknown execution backend 'thread'; "
                "available: process, serial") in capsys.readouterr().err

    def test_backends_print_identical_verdict_lines(self, capsys):
        outputs = {}
        for backend in ("process", "serial"):
            assert main(["batch-check", "handshake", "inconsistent",
                         "--backend", backend]) == 0
            outputs[backend] = "\n".join(
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("batch-check:"))
        assert outputs["process"] == outputs["serial"]

    def test_json_header_records_backend_and_shard(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["batch-check", "handshake", "--backend", "process",
                     "--jobs", "2", "--shard", "0/2",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["backend"] == "process"
        assert payload["shard"] == "0/2"
        assert payload["entries"][0]["provenance"] == {
            "backend": "process", "shard": "0/2"}

    def test_stable_json_has_no_provenance_or_timing(self, tmp_path,
                                                     capsys):
        path = tmp_path / "stable.json"
        assert main(["batch-check", "handshake", "--backend", "process",
                     "--jobs", "2", "--stable-json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert "backend" not in payload
        entry = payload["entries"][0]
        assert "provenance" not in entry
        assert "duration" not in entry and "cached" not in entry


class TestBatchCheckMergeAndResume:
    """Distribution flags: --merge, --resume, --cache-gc."""

    SELECTION = ["handshake", "vme_read", "mutex_element", "inconsistent"]

    def shard_stores(self, tmp_path, count=2):
        stores = []
        for index in range(count):
            store = str(tmp_path / f"shard-{index}")
            stores.append(store)
            assert main(["batch-check", *self.SELECTION,
                         "--shard", f"{index}/{count}",
                         "--cache-dir", store]) in (0, 1)
        return stores

    def test_merge_reproduces_the_unsharded_sweep(self, tmp_path, capsys):
        stores = self.shard_stores(tmp_path)
        capsys.readouterr()
        merged_path = tmp_path / "merged.json"
        assert main(["batch-check", *self.SELECTION,
                     "--merge", *stores,
                     "--cache-dir", str(tmp_path / "merged"),
                     "--stable-json", str(merged_path)]) == 0
        output = capsys.readouterr().out
        assert "backend: merge" in output
        assert "adopted" in output
        reference_path = tmp_path / "reference.json"
        assert main(["batch-check", *self.SELECTION,
                     "--stable-json", str(reference_path)]) == 0
        assert merged_path.read_bytes() == reference_path.read_bytes()

    def test_merge_preserves_per_entry_provenance(self, tmp_path, capsys):
        stores = self.shard_stores(tmp_path)
        report_path = tmp_path / "merged-report.json"
        assert main(["batch-check", *self.SELECTION,
                     "--merge", *stores,
                     "--cache-dir", str(tmp_path / "merged"),
                     "--json", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        shards = {entry["name"]: entry["provenance"]["shard"]
                  for entry in payload["entries"]}
        # Round-robin 0/2 owns positions 0 and 2, shard 1/2 the rest.
        assert shards["handshake"] == "0/2"
        assert shards["vme_read"] == "1/2"
        assert shards["mutex_element"] == "0/2"

    def test_merge_reports_missing_entries_as_errors(self, tmp_path,
                                                     capsys):
        store = str(tmp_path / "shard-0")
        assert main(["batch-check", *self.SELECTION, "--shard", "0/2",
                     "--cache-dir", store]) == 0
        capsys.readouterr()
        # Merging only shard 0 of 2: the odd positions never ran.
        assert main(["batch-check", *self.SELECTION,
                     "--merge", store,
                     "--cache-dir", str(tmp_path / "merged")]) == 1
        output = capsys.readouterr().out
        assert "2 errors" in output
        assert "no verdict for this fingerprint" in output

    def test_merge_requires_cache_dir(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake", "--merge", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_resume_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake", "--resume"])
        assert excinfo.value.code == 2

    def test_resume_conflicts_with_no_cache(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake", "--resume", "--no-cache",
                  "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_resume_repairs_a_truncated_store_and_skips_done_work(
            self, tmp_path, capsys):
        import warnings

        from repro.runner.store import RESULTS_FILE

        cache = str(tmp_path / "cache")
        assert main(["batch-check", "handshake", "vme_read",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        path = tmp_path / "cache" / RESULTS_FILE
        content = path.read_text()
        path.write_text(content + content.splitlines()[-1][:40])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the repair is the point
            assert main(["batch-check", "handshake", "vme_read",
                         "inconsistent", "--cache-dir", cache,
                         "--resume"]) == 0
        assert "2 cached" in capsys.readouterr().out
        # The store file is whole again: reloading warns about nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.runner import RunStore
            assert len(RunStore(cache)) == 3

    def test_cache_gc_evicts_and_reports(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["batch-check", *self.SELECTION,
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["batch-check", "handshake", "--cache-dir", cache,
                     "--cache-gc", "entries=2"]) == 0
        assert "cache-gc: evicted 2" in capsys.readouterr().out
        from repro.runner import RunStore
        assert len(RunStore(cache)) == 2

    def test_invalid_cache_gc_spec_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake",
                  "--cache-dir", str(tmp_path), "--cache-gc", "bogus"])
        assert excinfo.value.code == 2

    def test_cache_gc_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake", "--cache-gc", "entries=1"])
        assert excinfo.value.code == 2


class TestBatchCheckGcAndMergeGuards:
    """Regression guards: pre-flight validation beats mid-sweep crashes."""

    def test_cache_gc_conflicts_with_no_cache(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake", "--cache-dir", str(tmp_path),
                  "--no-cache", "--cache-gc", "entries=1"])
        assert excinfo.value.code == 2

    def test_negative_cache_gc_bound_exits_2_before_the_sweep(
            self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake",
                  "--cache-dir", str(tmp_path), "--cache-gc", "entries=-1"])
        assert excinfo.value.code == 2
        # The sweep never ran: the verdict table is absent.
        assert "handshake " not in capsys.readouterr().out

    def test_merge_of_a_nonexistent_store_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake",
                  "--merge", str(tmp_path / "typo"),
                  "--cache-dir", str(tmp_path / "merged")])
        assert excinfo.value.code == 2
        assert "no such run-store directory" in capsys.readouterr().err
        assert not (tmp_path / "typo").exists()


class TestTraceFlag:
    """``--trace DIR``: per-entry JSONL traces from both CLI modes."""

    def test_single_mode_writes_a_trace_file(self, tmp_path, capsys):
        assert main(["handshake", "--trace", str(tmp_path)]) == 0
        import os

        files = os.listdir(tmp_path)
        assert files == ["handshake.jsonl"]
        from repro.obs.report import stage_breakdown
        from repro.obs.sinks import read_trace_records

        records, skipped = read_trace_records(str(tmp_path / files[0]))
        assert skipped == 0
        stages = stage_breakdown(records)
        assert "traversal" in stages

    def test_batch_mode_writes_one_file_per_entry(self, tmp_path, capsys):
        assert main(["batch-check", "handshake", "vme_read",
                     "--trace", str(tmp_path)]) == 0
        import os

        files = sorted(os.listdir(tmp_path))
        assert len(files) == 2
        assert files[0].startswith("handshake-")
        assert files[1].startswith("vme_read-")

    def test_trace_does_not_change_verdicts_or_exit_code(
            self, tmp_path, capsys):
        assert main(["inconsistent", "--trace", str(tmp_path)]) == 1
        assert "not SI-implementable" in capsys.readouterr().out

    def test_untraced_run_writes_nothing(self, tmp_path, capsys):
        assert main(["handshake"]) == 0
        import os

        assert os.listdir(tmp_path) == []
