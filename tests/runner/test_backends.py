"""Tests of the pluggable execution-backend layer.

The contracts the ISSUE pins:

* the backend registry mirrors ``repro.engines`` (register/available/get,
  did-you-mean on unknown names),
* ``process`` and ``serial`` produce byte-identical
  ``SweepResult.stable_json_dict()`` output for the same plan,
* failure isolation holds on every backend, and
* results carry per-entry execution provenance while the stable view
  stays provenance-free.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.runner import (
    SweepPlan,
    SweepRunner,
    UnknownBackendError,
    backends,
    run_sweep,
)

SELECTION = ["handshake", "vme_read", "mutex_element", "inconsistent",
             "random_ring_n4_s1"]

BUILTINS = ("process", "serial")


def stable_json(sweep):
    return json.dumps(sweep.stable_json_dict(), sort_keys=True)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert backends.available() == list(BUILTINS)
        assert backends.DEFAULT_BACKEND == "process"

    def test_get_returns_the_named_backend(self):
        for name in BUILTINS:
            assert backends.get(name).name == name

    def test_unknown_backend_has_did_you_mean(self):
        with pytest.raises(UnknownBackendError) as info:
            backends.get("serail")
        assert "unknown execution backend 'serail'" in str(info.value)
        assert "did you mean: serial" in str(info.value)

    @pytest.mark.parametrize("name", ["thread", "asyncio"])
    def test_thread_pool_backends_are_not_registered(self, name):
        # The checks hold the GIL from parse to report, so a thread pool
        # never beat serial; both were deleted rather than kept as knobs.
        with pytest.raises(UnknownBackendError) as info:
            backends.get(name)
        assert str(info.value).startswith(
            f"unknown execution backend '{name}'; "
            f"available: process, serial")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            backends.register("serial", backends.SerialBackend())

    def test_custom_backend_plugs_in(self):
        class Tagged(backends.SerialBackend):
            name = "tagged"

        backends.register("tagged", Tagged())
        try:
            sweep = run_sweep(SweepPlan(names=["handshake"],
                                        backend="tagged"))
            assert sweep.backend == "tagged"
            assert sweep.succeeded
        finally:
            backends.unregister("tagged")

    def test_resolve_accepts_instances_names_and_none(self):
        instance = backends.SerialBackend()
        assert backends.resolve(instance) is instance
        assert backends.resolve("serial").name == "serial"
        assert backends.resolve(None).name == backends.DEFAULT_BACKEND


class TestBackendParity:
    @pytest.mark.smoke
    def test_all_builtin_backends_are_byte_identical(self):
        sweeps = {name: run_sweep(SweepPlan(names=SELECTION, jobs=2),
                                  backend=name)
                  for name in BUILTINS}
        reference = stable_json(sweeps["process"])
        for name in BUILTINS:
            assert stable_json(sweeps[name]) == reference, name
            assert sweeps[name].backend == name

    def test_plan_backend_selects_execution(self):
        sweep = SweepRunner(SweepPlan(names=["handshake"],
                                      backend="serial")).run()
        assert sweep.backend == "serial"

    def test_runner_backend_overrides_plan(self):
        plan = SweepPlan(names=["handshake"], backend="process")
        sweep = SweepRunner(plan, backend="serial").run()
        assert sweep.backend == "serial"

    def test_results_preserve_plan_order_on_pools(self):
        sweep = run_sweep(SweepPlan(names=SELECTION, jobs=2),
                          backend="process")
        assert [result.name for result in sweep] == SELECTION


class TestFailureIsolationAcrossBackends:
    @pytest.mark.parametrize("backend", BUILTINS)
    def test_poisoned_entry_is_isolated(self, backend):
        from repro.runner import SweepTask

        class Poisoned(SweepPlan):
            def tasks(self):
                tasks = super().tasks()
                tasks.insert(1, SweepTask(name="poisoned",
                                          g_text=".bogus_directive\n"))
                return tasks

        plan = Poisoned(names=["handshake", "vme_read"], jobs=2)
        sweep = SweepRunner(plan, backend=backend).run()
        by_name = {result.name: result for result in sweep}
        assert by_name["poisoned"].status == "error"
        assert by_name["handshake"].status == "ok"
        assert by_name["vme_read"].status == "ok"


class TestProvenance:
    def test_fresh_results_are_stamped(self):
        sweep = run_sweep(SweepPlan(names=["handshake"], backend="serial"))
        provenance = sweep.results[0].provenance
        assert provenance == {"backend": "serial", "shard": "0/1"}

    def test_cached_results_keep_the_computing_backend(self, tmp_path):
        plan = SweepPlan(names=["handshake"])
        run_sweep(plan, cache_dir=str(tmp_path), backend="process")
        second = run_sweep(plan, cache_dir=str(tmp_path), backend="serial")
        assert second.results[0].cached
        assert second.results[0].provenance["backend"] == "process"

    def test_header_records_backend_but_stable_json_does_not(self):
        sweep = run_sweep(SweepPlan(names=["handshake"]), backend="serial")
        header = sweep.to_json_dict()
        assert header["backend"] == "serial"
        stable = sweep.stable_json_dict()
        assert "backend" not in stable
        assert "provenance" not in stable["entries"][0]


class TestImportFootprint:
    def test_runner_import_loads_no_pool_or_event_loop_machinery(self):
        # A fresh interpreter: the test process has imported them all.
        script = ("import sys\n"
                  "import repro.api, repro.runner\n"
                  "print(' '.join(name for name in ('asyncio', "
                  "'multiprocessing', 'concurrent.futures') "
                  "if name in sys.modules))\n")
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=source_root),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []
