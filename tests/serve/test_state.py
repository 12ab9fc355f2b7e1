"""The warm state: task construction parity, interning, config hygiene."""

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import corpus, obs
from repro.api import EngineConfig
from repro.cache import BDDStore, bind_pipeline, canonical_g_text
from repro.core.pipeline import VerificationPipeline
from repro.runner import SweepPlan, SweepTask
from repro.runner.results import EntryResult
from repro.runner.worker import execute_payload
from repro.serve.protocol import CheckRequest, ProtocolError
from repro.serve.state import WarmState, execute_payload_async
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
