"""Sweep tracing: one JSONL trace per entry keyed by fingerprint,
provenance stamped by the runner, and strict trace-on/off parity of the
stable results."""

import json
import os

import pytest

from repro.api import EngineConfig
from repro.obs.report import trace_meta
from repro.obs.sinks import FINGERPRINT_PREFIX, read_trace_records
from repro.runner import SweepPlan, run_sweep

SELECTION = ["handshake", "vme_read", "inconsistent"]


def traced_plan(trace_dir, backend=None, jobs=1):
    return SweepPlan(names=SELECTION, jobs=jobs, backend=backend,
                     config=EngineConfig(trace_dir=str(trace_dir)))


def stable_json(sweep):
    return json.dumps(sweep.stable_json_dict(), sort_keys=True)


class TestPerEntryTraceFiles:
    def test_one_file_per_entry_keyed_by_fingerprint(self, tmp_path):
        sweep = run_sweep(traced_plan(tmp_path))
        files = sorted(os.listdir(tmp_path))
        assert len(files) == len(SELECTION)
        for result in sweep:
            prefix = result.fingerprint[:FINGERPRINT_PREFIX]
            expected = f"{result.name}-{prefix}.jsonl"
            assert expected in files

    def test_traces_carry_entry_spans_and_meta(self, tmp_path):
        sweep = run_sweep(traced_plan(tmp_path))
        for result in sweep:
            path = tmp_path / (f"{result.name}-"
                               f"{result.fingerprint[:FINGERPRINT_PREFIX]}"
                               f".jsonl")
            records, skipped = read_trace_records(str(path))
            assert skipped == 0
            meta = trace_meta(records)
            assert meta["entry"] == result.name
            assert meta["fingerprint"] == result.fingerprint
            names = {r["name"] for r in records if r["type"] == "span"}
            assert "entry" in names

    def test_runner_stamps_backend_and_shard_provenance(self, tmp_path):
        run_sweep(traced_plan(tmp_path, backend="serial"))
        path = tmp_path / sorted(os.listdir(tmp_path))[0]
        meta = trace_meta(read_trace_records(str(path))[0])
        assert meta["provenance"]["backend"] == "serial"
        assert meta["provenance"]["shard"] == "0/1"

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_backends_write_disjoint_files(self, tmp_path,
                                                    backend):
        sweep = run_sweep(traced_plan(tmp_path, backend=backend, jobs=2))
        assert len(os.listdir(tmp_path)) == len(SELECTION)
        assert sweep.succeeded


class TestTraceParity:
    def test_stable_json_identical_with_and_without_tracing(self,
                                                            tmp_path):
        untraced = run_sweep(SweepPlan(names=SELECTION))
        traced = run_sweep(traced_plan(tmp_path))
        assert stable_json(untraced) == stable_json(traced)

    def test_trace_dir_is_not_fingerprint_material(self, tmp_path):
        plain = SweepPlan(names=SELECTION).tasks()
        traced = traced_plan(tmp_path).tasks()
        assert [t.fingerprint for t in plain] == \
            [t.fingerprint for t in traced]

    def test_traced_sweep_reuses_the_untraced_cache(self, tmp_path):
        store_dir = tmp_path / "store"
        trace_dir = tmp_path / "traces"
        from repro.runner import RunStore, SweepRunner

        first = SweepRunner(SweepPlan(names=SELECTION),
                            store=RunStore(str(store_dir))).run()
        assert first.cached == 0
        second = SweepRunner(traced_plan(trace_dir),
                             store=RunStore(str(store_dir))).run()
        assert second.cached == len(SELECTION)
        assert stable_json(first) == stable_json(second)
