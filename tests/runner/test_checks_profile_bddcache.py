"""Sweep-level check batching, --profile and the --bdd-cache wiring."""

import json

import pytest

from repro import api
from repro.api.facade import resolve_base
from repro.cli import main
from repro.runner import SweepPlan, SweepRunner
from repro.runner.worker import execute_payload


def handshake_entry():
    """The BDD-store file of ``handshake``: named by its fingerprint."""
    return resolve_base("handshake", api.EngineConfig()) + ".bdd"


class TestCheckSelectionOnPlans:
    def test_checks_ride_every_task_and_its_payload(self):
        plan = SweepPlan(names=["handshake", "vme_read"],
                         checks=("consistency", "csc"))
        for task in plan.tasks():
            assert task.checks == ("consistency", "csc")
            assert task.to_payload()["checks"] == ["consistency", "csc"]

    def test_checks_change_the_fingerprint(self):
        full = SweepPlan(names=["handshake"]).tasks()[0]
        subset = SweepPlan(names=["handshake"],
                           checks=("consistency",)).tasks()[0]
        assert full.fingerprint != subset.fingerprint

    def test_bdd_cache_dir_does_not_change_the_fingerprint(self, tmp_path):
        base = SweepPlan(names=["handshake"]).tasks()[0]
        cached = SweepPlan(
            names=["handshake"],
            config=api.EngineConfig(bdd_cache_dir=str(tmp_path))
        ).tasks()[0]
        assert base.fingerprint == cached.fingerprint

    def test_worker_runs_only_the_selected_checks(self):
        task = SweepPlan(names=["handshake"],
                         checks=("consistency",)).tasks()[0]
        result = execute_payload(task.to_payload())
        assert result["status"] == "ok"
        verdict_names = [verdict["name"]
                         for verdict in result["report"]["verdicts"]]
        assert any("consistent" in name for name in verdict_names)
        assert not any("CSC" in name for name in verdict_names)
        assert result["report"]["csc"] is None

    def test_subset_sweep_still_validates_checked_metadata(self):
        plan = SweepPlan(names=["handshake", "csc_violation"],
                         checks=("consistency", "csc"))
        sweep = SweepRunner(plan).run()
        assert all(result.status == "ok" for result in sweep)


class TestCliFlags:
    def test_batch_check_checks_subset(self, capsys):
        exit_code = main(["batch-check", "handshake", "vme_read",
                          "--checks", "consistency,csc"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "2 entries, 2 matching" in output

    def test_batch_check_unknown_check_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-check", "handshake", "--checks", "cs"])
        assert excinfo.value.code == 2
        assert "csc" in capsys.readouterr().err  # did-you-mean

    def test_profile_prints_slowest_entries(self, capsys):
        exit_code = main(["batch-check", "handshake", "vme_read",
                          "mutex_element", "--profile", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "profile: 2 slowest entries" in output
        assert "traversal=" in output
        assert "hit_rate=" in output

    def test_profile_works_on_every_backend(self, capsys):
        for backend in ("serial", "process"):
            exit_code = main(["batch-check", "handshake",
                              "--backend", backend, "--profile", "1"])
            assert exit_code == 0
            assert "profile: 1 slowest" in capsys.readouterr().out

    def test_bdd_cache_flag_populates_the_store(self, tmp_path, capsys):
        store = tmp_path / "bdd"
        exit_code = main(["batch-check", "handshake",
                          "--bdd-cache", str(store)])
        assert exit_code == 0
        assert (store / handshake_entry()).exists()

    def test_single_check_mode_accepts_bdd_cache(self, tmp_path, capsys):
        store = tmp_path / "bdd"
        assert main(["handshake", "--bdd-cache", str(store)]) == 0
        assert (store / handshake_entry()).exists()
        # Second run hits the store; the summary must be unchanged.
        first = capsys.readouterr().out
        assert main(["handshake", "--bdd-cache", str(store)]) == 0
        second = capsys.readouterr().out
        strip = [line for line in first.splitlines() if "time" not in line]
        strip2 = [line for line in second.splitlines() if "time" not in line]
        assert strip == strip2


class TestStableJsonStripsVolatileStats:
    def test_stable_json_is_identical_with_and_without_bdd_cache(
            self, tmp_path, capsys):
        def stable(arguments):
            path = tmp_path / "out.json"
            assert main(["batch-check", "handshake", "vme_read",
                         "--stable-json", str(path), *arguments]) == 0
            capsys.readouterr()
            return path.read_bytes()

        store = str(tmp_path / "bdd")
        plain = stable([])
        cold = stable(["--bdd-cache", store])
        warm = stable(["--bdd-cache", store])
        assert plain == cold == warm

    def test_volatile_traversal_fields_present_in_json_absent_in_stable(
            self, tmp_path, capsys):
        json_path = tmp_path / "full.json"
        stable_path = tmp_path / "stable.json"
        assert main(["batch-check", "handshake",
                     "--json", str(json_path),
                     "--stable-json", str(stable_path)]) == 0
        capsys.readouterr()
        full = json.loads(json_path.read_text())
        stable = json.loads(stable_path.read_text())
        traversal = full["entries"][0]["traversal"]
        assert "wall_time_s" in traversal
        assert "peak_live_nodes" in traversal
        assert "cache_hits" in traversal and "cache_lookups" in traversal
        stable_traversal = stable["entries"][0]["traversal"]
        for volatile in ("wall_time_s", "peak_live_nodes",
                         "cache_hits", "cache_lookups",
                         "iterations", "images_computed", "peak_nodes"):
            # Path-dependent counters (delta warm-starts take a
            # different path to the same fixpoint) stay out of the
            # stable view.
            assert volatile not in stable_traversal
        assert stable_traversal["num_states"] == traversal["num_states"]
        assert stable_traversal["final_nodes"] == traversal["final_nodes"]
