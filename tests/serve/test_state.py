"""The warm state: task construction parity, interning, config hygiene."""

import asyncio
import gc
import json
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import corpus, obs
from repro.api import EngineConfig
from repro.bdd.manager import BDDManager
from repro.cache import BDDStore, bind_pipeline, canonical_g_text
from repro.core.pipeline import VerificationPipeline
from repro.runner import SweepPlan, SweepTask
from repro.runner.results import EntryResult
from repro.runner.worker import execute_payload
from repro.serve.protocol import CheckRequest, ProtocolError
from repro.serve.state import TASK_SOURCES, WarmState, execute_payload_async
from repro.stg.parser import parse_g


@pytest.fixture
def state(tmp_path):
    return WarmState(str(tmp_path / "state"))


class TestMakeTaskParity:
    def test_corpus_task_fingerprint_matches_the_sweep_plan(self, state):
        # The whole serving story hangs on this: same entry, same
        # fingerprint, therefore same RunStore key and stable verdict
        # as a batch-check sweep.
        planned = {task.name: task for task in SweepPlan().tasks()}
        assert list(planned) == corpus.names()
        for name, task in planned.items():
            served = state.make_task(CheckRequest(entry=name))
            assert served.fingerprint == task.fingerprint
            assert served.g_text == task.g_text
            assert served.expected == task.expected
            assert served.config.arbitration_places == \
                task.config.arbitration_places

    def test_checks_subset_changes_the_fingerprint(self, state):
        full = state.make_task(CheckRequest(entry="handshake"))
        subset = state.make_task(CheckRequest(entry="handshake",
                                              checks=("csc",)))
        assert subset.checks == ("csc",)
        assert subset.fingerprint != full.fingerprint
        planned = SweepPlan(names=["handshake"], checks=["csc"]).tasks()[0]
        assert subset.fingerprint == planned.fingerprint

    def test_arbitration_places_come_from_the_registry(self, state):
        entry = corpus.entry("mutex_element")
        assert entry.arbitration_places  # the test needs a real one
        task = state.make_task(CheckRequest(entry="mutex_element"))
        assert task.config.arbitration_places == \
            tuple(sorted(entry.arbitration_places))


class TestConfigHygiene:
    def test_execution_knobs_are_stripped_from_client_configs(self, state):
        task = state.make_task(CheckRequest(
            entry="handshake",
            config={"timeout": 1.0, "trace_dir": "/tmp/elsewhere",
                    "bdd_cache_dir": "/tmp/evil"}))
        assert task.config.timeout is None
        assert task.config.trace_dir is None
        # ... and the daemon's own BDD cache is stamped on instead.
        assert task.config.bdd_cache_dir == state.bdd_dir

    def test_semantic_config_fields_pass_through(self, state):
        task = state.make_task(CheckRequest(
            entry="handshake", config={"engine": "explicit",
                                       "max_states": 99}))
        assert task.config.engine == "explicit"
        assert task.config.max_states == 99

    def test_invalid_config_is_a_protocol_error(self, state):
        with pytest.raises(ProtocolError, match="invalid engine config"):
            state.make_task(CheckRequest(entry="handshake",
                                         config={"engine": "quantum"}))

    def test_unknown_corpus_entry_maps_to_404(self, state):
        with pytest.raises(ProtocolError) as info:
            state.make_task(CheckRequest(entry="no_such_entry"))
        assert info.value.status == 404

    def test_misspelt_names_read_as_on_the_cli(self, state):
        with pytest.raises(ProtocolError) as info:
            state.make_task(CheckRequest(entry="handshak"))
        assert str(info.value).startswith("unknown corpus entry 'handshak'")
        assert str(info.value).endswith("did you mean: handshake?")
        with pytest.raises(ProtocolError) as info:
            state.make_task(CheckRequest(entry="handshake",
                                         config={"engine": "symbolc"}))
        assert str(info.value).startswith(
            "invalid engine config: unknown engine 'symbolc'")
        assert str(info.value).endswith("did you mean: symbolic?")


class TestInterning:
    def test_anonymous_g_text_requests_share_one_name(self, state):
        text = corpus.entry("handshake").g_text
        first = state.make_task(CheckRequest(g_text=text))
        second = state.make_task(CheckRequest(g_text=text))
        assert first.name == second.name
        assert first.name.startswith("g-")
        assert first.fingerprint == second.fingerprint


class TestBaseResolution:
    def test_bases_resolve_to_the_stored_keys(self, state):
        # Every corpus entry, then a task whose text (not in the
        # writer's form) was checked under another name.
        state.make_task(CheckRequest(g_text=corpus.g_text("sbuf_send_ctl"),
                                     name="edited-ctl"))
        sources = {name: corpus.g_text(name) for name in corpus.names()}
        sources["edited-ctl"] = corpus.g_text("sbuf_send_ctl")
        store = BDDStore.shared(state.bdd_dir)
        for name, text in sources.items():
            task = state.make_task(CheckRequest(entry="handshake",
                                                base=name))
            stored = bind_pipeline(
                VerificationPipeline(parse_g(text, name=name)), store,
                name=name, config=task.config)
            assert task.config.base_fingerprint == stored, name

    def test_a_resolved_base_is_not_parsed_again(self, state, monkeypatch):
        from repro.stg import parser

        text = corpus.g_text("vme_read")
        state.make_task(CheckRequest(g_text=text, name="memo-base"))
        canonical_g_text.cache_clear()
        parses = []

        def counting_parse(*args, **kwargs):
            parses.append(args)
            return parse_g(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_g", counting_parse)
        first, second = (
            state.make_task(CheckRequest(g_text=text, name="memo-edit",
                                         base="memo-base"))
            for _ in range(2))
        assert first.config.base_fingerprint == \
            second.config.base_fingerprint
        assert len(parses) == 1


class TestTaskSources:
    """The daemon keeps the ``.g`` text of its most recently used task
    names only; resolving a name as a base counts as a use."""

    LIMIT = 8

    @pytest.fixture
    def limited(self, state, monkeypatch):
        from repro.serve import state as state_module

        monkeypatch.setattr(state_module, "TASK_SOURCES", self.LIMIT)
        return state

    def fresh(self, index):
        text = corpus.g_text("handshake").replace(
            ".model handshake", f".model fresh{index}")
        return CheckRequest(g_text=text, name=f"fresh{index}")

    def test_an_editor_base_outlives_twice_the_limit(self, limited):
        limited.make_task(CheckRequest(g_text=corpus.g_text("vme_read"),
                                       name="editor-base"))
        expected = limited.make_task(CheckRequest(
            entry="handshake", base="editor-base")).config.base_fingerprint
        for index in range(2 * self.LIMIT):
            limited.make_task(self.fresh(index))
            if index % 3 == 2:
                task = limited.make_task(CheckRequest(
                    entry="handshake", base="editor-base"))
                assert task.config.base_fingerprint == expected
        assert len(limited._task_sources) == self.LIMIT
        assert "editor-base" in limited._task_sources

    def test_a_name_unused_for_the_limit_is_a_404(self, limited):
        limited.make_task(self.fresh("old"))
        for index in range(self.LIMIT - 1):
            limited.make_task(self.fresh(index))
        # Still among the last LIMIT names used.
        limited.make_task(CheckRequest(entry="handshake", base="freshold"))
        for index in range(self.LIMIT):
            limited.make_task(self.fresh(f"new{index}"))
        with pytest.raises(ProtocolError) as caught:
            limited.make_task(CheckRequest(entry="handshake",
                                           base="freshold"))
        assert caught.value.status == 404
        assert "re-send" in str(caught.value)
        assert "fingerprint" in str(caught.value)
        assert len(limited._task_sources) == self.LIMIT


class TestRunTask:
    def test_repeat_runs_are_served_from_the_run_store(self, state):
        task = state.make_task(CheckRequest(entry="handshake"))

        async def scenario():
            first = await state.run_task(task)
            second = await state.run_task(task)
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == "ok" and not first.cached
        assert second.cached
        assert state.metrics.counter("serve.runstore.misses").value == 1
        assert state.metrics.counter("serve.runstore.hits").value == 1

    def test_single_flight_coalesces_concurrent_duplicates(self, state):
        task = state.make_task(CheckRequest(entry="vme_read"))

        async def scenario():
            return await asyncio.gather(*(state.run_task(task)
                                          for _ in range(4)))

        results = asyncio.run(scenario())
        computed = [result for result in results if not result.cached]
        assert len(computed) == 1  # one traversal for four requests
        assert state.metrics.counter("serve.runstore.hits").value == 3
        assert len({json.dumps(result.stable_dict(), sort_keys=True)
                    for result in results}) == 1

    def test_misses_compute_one_at_a_time_in_arrival_order(
            self, state, monkeypatch):
        from repro.serve import state as state_module

        names = ("handshake", "vme_read", "mutex_element")
        tasks = [state.make_task(CheckRequest(entry=name))
                 for name in names]
        lock = threading.Lock()
        computing, started, overlaps = [], [], []

        def recording(payload):
            with lock:
                overlaps.append(len(computing))
                computing.append(payload["name"])
                started.append(payload["name"])
            time.sleep(0.05)  # room for a second thread to overlap
            try:
                return execute_payload(payload)
            finally:
                with lock:
                    computing.remove(payload["name"])

        monkeypatch.setattr(state_module, "execute_payload", recording)

        async def scenario():
            return await asyncio.gather(*(state.run_task(task, executor)
                                          for task in tasks))

        with ThreadPoolExecutor(max_workers=len(tasks)) as executor:
            results = asyncio.run(scenario())
        assert [result.status for result in results] == ["ok"] * 3
        assert started == list(names)
        assert overlaps == [0, 0, 0]
        waits = state.metrics.histogram("serve.compute_wait.seconds")
        assert waits.count == 3
        assert waits.maximum >= 0.1  # the last waited for two checks

    def test_many_cold_tasks_leave_bounded_tables_and_no_manager(
            self, state, monkeypatch):
        # What the daemon keeps per answered request is bounded: the
        # task-source table stays at its limit, the RunStore keeps index
        # entries, and every verification frees its BDD manager by
        # reference counting alone.
        managers = []
        initialise = BDDManager.__init__

        def tracked(manager, *arguments, **keywords):
            initialise(manager, *arguments, **keywords)
            managers.append(weakref.ref(manager))

        monkeypatch.setattr(BDDManager, "__init__", tracked)
        text = corpus.g_text("handshake")
        requests = [CheckRequest(g_text=text.replace(
            ".model handshake", f".model cold{index}"), name=f"cold{index}")
            for index in range(TASK_SOURCES + 44)]

        async def scenario():
            for request in requests:
                result = await state.run_task(state.make_task(request))
                assert result.status == "ok" and not result.cached

        gc.collect()
        gc.disable()
        try:
            asyncio.run(scenario())
            assert len(state._task_sources) == TASK_SOURCES
            assert len(managers) >= len(requests)
            assert [ref for ref in managers if ref() is not None] == []
        finally:
            gc.enable()
        assert len(state.run_store) == len(requests)
        assert state.bdd_store.misses == len(requests)


class TestExecutePayloadAsync:
    def test_expired_deadline_is_a_timeout_record(self):
        task = SweepTask(name="handshake", g_text=corpus.g_text("handshake"),
                         config=EngineConfig(timeout=1e-9))
        result = asyncio.run(execute_payload_async(task.to_payload()))
        assert result["status"] == "timeout"
        assert "DeadlineExceeded" in result["error"]

    def test_unparsable_payload_is_an_error_record(self):
        task = SweepTask(name="poisoned", g_text=".bogus_directive\n")
        result = asyncio.run(execute_payload_async(task.to_payload()))
        assert result["name"] == "poisoned"
        assert result["status"] == "error"

    def test_record_matches_the_synchronous_worker(self):
        payload = SweepPlan(names=["vme_read"]).tasks()[0].to_payload()
        awaited = asyncio.run(execute_payload_async(payload))
        assert awaited["status"] == "ok"
        assert EntryResult.from_dict(awaited).stable_dict() == \
            EntryResult.from_dict(execute_payload(payload)).stable_dict()

    def test_spans_reach_the_tracer_activated_around_the_call(self):
        # run_in_executor does not carry contextvars over by itself; the
        # primitive's context copy routes the entry's spans to the caller.
        sink = obs.InMemorySink()
        tracer = obs.Tracer(sinks=[sink])
        payload = SweepPlan(names=["handshake"]).tasks()[0].to_payload()

        async def scenario():
            with obs.activated(tracer):
                return await execute_payload_async(payload)

        assert asyncio.run(scenario())["status"] == "ok"
        tracer.finish()
        assert {"entry", "parse", "traversal"} <= {
            record["name"] for record in sink.spans()}

    def test_runs_on_the_given_executor(self):
        class CountingExecutor(ThreadPoolExecutor):
            submitted = 0

            def submit(self, fn, /, *args, **kwargs):
                self.submitted += 1
                return super().submit(fn, *args, **kwargs)

        payload = SweepPlan(names=["handshake"]).tasks()[0].to_payload()
        with CountingExecutor(max_workers=1) as executor:
            result = asyncio.run(execute_payload_async(payload,
                                                       executor=executor))
        assert result["status"] == "ok"
        assert executor.submitted == 1

    def test_the_event_loop_runs_while_an_entry_executes(self):
        payload = SweepPlan(names=["handshake"]).tasks()[0].to_payload()

        async def scenario():
            ticks = 0

            async def ticker():
                nonlocal ticks
                while True:
                    ticks += 1
                    await asyncio.sleep(0)

            ticking = asyncio.ensure_future(ticker())
            await asyncio.sleep(0)
            before = ticks
            result = await execute_payload_async(payload)
            ran = ticks - before
            ticking.cancel()
            return result, ran

        result, ran = asyncio.run(scenario())
        assert result["status"] == "ok"
        assert ran > 0  # a blocking call would have starved the ticker
