"""Cooperative deadlines: the ``deadline``/``timeout`` execution knobs
enforced inside the engines, so *every* backend -- not just the
preemptive ``process`` pool -- yields ``timeout`` records."""

import time

import pytest

from repro import corpus
from repro.api import EngineConfig
from repro.runner import SweepPlan, SweepRunner, SweepTask
from repro.utils.timing import (
    DeadlineExceeded,
    check_deadline,
    deadline_from_timeout,
)


class TestCheckDeadline:
    def test_no_deadline_is_a_no_op(self):
        check_deadline(None, "anywhere")

    def test_future_deadline_passes(self):
        check_deadline(time.monotonic() + 60.0, "anywhere")

    def test_past_deadline_raises_with_the_context(self):
        with pytest.raises(DeadlineExceeded) as info:
            check_deadline(time.monotonic() - 1.0, "symbolic traversal")
        assert "symbolic traversal" in str(info.value)

    def test_deadline_from_timeout_is_absolute_monotonic(self):
        before = time.monotonic()
        deadline = deadline_from_timeout(5.0)
        assert before + 4.5 < deadline < time.monotonic() + 5.5


class SlowPlan(SweepPlan):
    """A plan whose first task sleeps past its cooperative budget."""

    def __init__(self, config, **kwargs):
        super().__init__(names=["handshake"], **kwargs)
        self._slow_config = config

    def tasks(self):
        slow = SweepTask(name="slow", g_text="", delay=0.3,
                         config=self._slow_config)
        return [slow] + super().tasks()


#: The backends with no preemptive kill of their own: they rely
#: entirely on the cooperative in-engine deadline checks.
COOPERATIVE_BACKENDS = ("serial",)


class TestCooperativeTimeouts:
    @pytest.mark.parametrize("backend", COOPERATIVE_BACKENDS)
    def test_timeout_knob_times_out_on_cooperative_backends(
            self, backend):
        plan = SlowPlan(EngineConfig(timeout=0.05), jobs=2,
                        backend=backend)
        sweep = SweepRunner(plan).run()
        by_name = {result.name: result for result in sweep}
        assert by_name["slow"].status == "timeout"
        assert "DeadlineExceeded" in by_name["slow"].error
        assert by_name["handshake"].status == "ok"

    @pytest.mark.parametrize("engine", ["symbolic", "explicit"])
    def test_both_engines_check_the_deadline(self, engine):
        plan = SlowPlan(EngineConfig(engine=engine, timeout=0.05),
                        backend="serial")
        sweep = SweepRunner(plan).run()
        by_name = {result.name: result for result in sweep}
        assert by_name["slow"].status == "timeout"

    def test_explicit_deadline_knob_overrides_timeout_derivation(self):
        # An already-expired absolute deadline: the entry times out on
        # its first traversal iteration without any sleeping.
        config = EngineConfig(deadline=time.monotonic() - 1.0)
        plan = SweepPlan(names=["handshake"], backend="serial",
                         config=config)
        sweep = SweepRunner(plan).run()
        assert sweep.results[0].status == "timeout"

    def test_generous_deadline_changes_nothing(self):
        config = EngineConfig(deadline=time.monotonic() + 300.0)
        reference = SweepRunner(SweepPlan(names=["handshake"],
                                          backend="serial")).run()
        sweep = SweepRunner(SweepPlan(names=["handshake"],
                                      backend="serial",
                                      config=config)).run()
        assert sweep.results[0].status == "ok"
        assert sweep.results[0].stable_dict() == \
            reference.results[0].stable_dict()


class TestDeadlineKnobSemantics:
    def test_deadline_and_fault_plan_are_execution_knobs(self):
        from repro.api.config import EXECUTION_KNOB_FIELDS

        assert "deadline" in EXECUTION_KNOB_FIELDS
        assert "fault_plan" in EXECUTION_KNOB_FIELDS
        base = SweepPlan(names=["handshake"]).tasks()[0]
        knobbed = SweepPlan(
            names=["handshake"],
            config=EngineConfig(deadline=time.monotonic() + 60.0,
                                fault_plan="crash=0.5,seed=1")
        ).tasks()[0]
        assert base.fingerprint == knobbed.fingerprint

    def test_bad_deadline_and_fault_plan_are_config_errors(self):
        from repro.api import ApiError

        with pytest.raises(ApiError):
            EngineConfig(deadline=0.0)
        with pytest.raises(ApiError):
            EngineConfig(fault_plan="bogus")

    def test_knobs_round_trip_through_the_config_dict(self):
        config = EngineConfig(deadline=12345.0,
                              fault_plan="hang=0.25,seed=3")
        replayed = EngineConfig.from_dict(config.to_dict())
        assert replayed.deadline == 12345.0
        assert replayed.fault_plan == "hang=0.25,seed=3"
        stripped = config.without_execution_knobs()
        assert stripped.deadline is None
        assert stripped.fault_plan is None


class FakeClock:
    """A stand-in for the ``time`` module of :mod:`repro.utils.timing`."""

    def __init__(self, now=1000.0):
        self.now = now

    def monotonic(self):
        return self.now


@pytest.fixture
def clock_jumps_in_closures(monkeypatch):
    """A clock that stands still until the first backward closure asks
    for its events, then jumps an hour: the forward traversal finishes
    inside any budget, and the closure's next deadline check finds its
    deadline gone."""
    from repro.core.image import SymbolicImage
    from repro.utils import timing

    clock = FakeClock()
    monkeypatch.setattr(timing, "time", clock)
    events = SymbolicImage.events

    def jump_then_build(self, transitions, direction):
        if direction == "backward":
            clock.now += 3600.0
        return events(self, transitions, direction)

    monkeypatch.setattr(SymbolicImage, "events", jump_then_build)
    return clock


class TestClosureDeadlines:
    """The liveness and reducibility closures honour the deadline, not
    just the forward traversal."""

    # The mutex element is not a marked graph, so its liveness check
    # runs the reversibility closure (a live marked graph is decided
    # from its structure without one).
    def test_verify_times_out_inside_the_liveness_closure(
            self, clock_jumps_in_closures):
        from repro.api import ALL, verify
        from repro.stg.generators import mutex_element

        config = EngineConfig(deadline=clock_jumps_in_closures.now + 1.0)
        with pytest.raises(DeadlineExceeded, match="backward"):
            verify(mutex_element(6), config, checks=ALL)

    def test_serial_worker_records_a_liveness_timeout(
            self, clock_jumps_in_closures):
        plan = SweepPlan(names=["mutex_element"], backend="serial",
                         config=EngineConfig(timeout=1.0))
        result, = SweepRunner(plan).run().results
        assert result.status == "timeout"
        assert "backward symbolic fixpoint" in result.error

    @pytest.mark.parametrize("check", ["reversibility",
                                       "complementary_inputs"])
    def test_pipeline_closures_check_an_expired_deadline(self, check):
        from repro.core.pipeline import VerificationPipeline
        from repro.stg.generators import csc_violation_example

        stg = (corpus.load("mutex_element") if check == "reversibility"
               else csc_violation_example())
        pipeline = VerificationPipeline(stg)
        pipeline.reached  # traversed in time
        pipeline.deadline = time.monotonic() - 1.0
        with pytest.raises(DeadlineExceeded, match="symbolic fixpoint"):
            getattr(pipeline, check)()

    def test_commutativity_fallback_checks_an_expired_deadline(self):
        # irreducible_csc has fake conflicts, so commutativity falls back
        # to enumerating the explicit state graph.
        from repro.core.pipeline import VerificationPipeline

        pipeline = VerificationPipeline(corpus.load("irreducible_csc"))
        pipeline.reached  # traversed in time
        assert not pipeline.fake_free()
        pipeline.deadline = time.monotonic() - 1.0
        with pytest.raises(DeadlineExceeded, match="explicit"):
            pipeline.commutativity()

    def test_commutativity_fallback_decides_before_its_deadline(self):
        from repro.core.pipeline import VerificationPipeline
        from repro.sg.builder import build_state_graph
        from repro.sg.reducibility import check_commutativity

        stg = corpus.load("irreducible_csc")
        pipeline = VerificationPipeline(stg)
        pipeline.deadline = time.monotonic() + 60.0
        expected = check_commutativity(build_state_graph(stg).graph,
                                       stg).commutative
        assert pipeline.commutativity() is expected

    def test_explicit_fake_conflicts_check_an_expired_deadline(self):
        from repro.api import verify

        config = EngineConfig(engine="explicit",
                              deadline=time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceeded, match="explicit"):
            verify(corpus.load("irreducible_csc"), config,
                   checks=["fake_conflicts"])
