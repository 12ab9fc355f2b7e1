"""RetryPolicy: spec parsing, deterministic backoff, verdict safety."""

import pytest

from repro.fabric.policy import (
    DEFAULT_RETRY_STATUSES,
    RetryPolicy,
    RetrySpecError,
    parse_retry_spec,
)


class TestSpecParsing:
    def test_full_spec_round_trips_every_field(self):
        policy = parse_retry_spec(
            "attempts=4,base=0.1,multiplier=3,max=1.5,jitter=0.25,seed=7")
        assert policy == RetryPolicy(max_attempts=4, base_delay=0.1,
                                     multiplier=3.0, max_delay=1.5,
                                     jitter=0.25, seed=7)

    def test_empty_spec_is_the_default_policy(self):
        assert parse_retry_spec("") == RetryPolicy()

    @pytest.mark.parametrize("spec", [
        "attempts", "bogus=1", "attempts=x", "base=-1", "attempts=0",
        "jitter=2", "multiplier=0.5"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(RetrySpecError):
            parse_retry_spec(spec)


class TestRetryDecisions:
    def test_default_retryable_statuses_are_the_non_verdicts(self):
        policy = RetryPolicy()
        assert DEFAULT_RETRY_STATUSES == ("error", "timeout")
        assert policy.retryable("error")
        assert policy.retryable("timeout")
        assert not policy.retryable("ok")
        assert not policy.retryable("mismatch")

    def test_verdict_statuses_can_never_be_configured_retryable(self):
        with pytest.raises(RetrySpecError):
            RetryPolicy(retry_statuses=("error", "mismatch"))
        with pytest.raises(RetrySpecError):
            RetryPolicy(retry_statuses=("ok",))

    def test_attempt_budget_bounds_should_retry(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry("error", 1)
        assert policy.should_retry("error", 2)
        assert not policy.should_retry("error", 3)
        assert not policy.should_retry("ok", 1)

    def test_max_attempts_one_never_retries(self):
        assert not RetryPolicy(max_attempts=1).should_retry("error", 1)


class TestBackoff:
    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().delay_for(1, "key") == 0.0

    def test_jitterless_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0)
        assert policy.delay_for(2) == pytest.approx(0.1)
        assert policy.delay_for(3) == pytest.approx(0.2)
        assert policy.delay_for(4) == pytest.approx(0.4)
        assert policy.delay_for(5) == pytest.approx(0.5)  # capped
        assert policy.delay_for(9) == pytest.approx(0.5)

    def test_jitter_is_deterministic_per_seed_key_attempt(self):
        policy = RetryPolicy(jitter=0.5, seed=11)
        assert policy.delay_for(2, "fp-a") == policy.delay_for(2, "fp-a")
        assert policy.delay_for(2, "fp-a") != policy.delay_for(2, "fp-b")
        assert policy.delay_for(2, "fp-a") != \
            RetryPolicy(jitter=0.5, seed=12).delay_for(2, "fp-a")

    def test_jitter_only_shrinks_the_delay_within_bounds(self):
        policy = RetryPolicy(base_delay=0.2, jitter=0.5)
        for key in ("a", "b", "c", "d", "e"):
            delay = policy.delay_for(2, key)
            assert 0.1 <= delay <= 0.2
