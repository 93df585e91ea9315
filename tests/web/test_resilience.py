"""Unit tests for the simulated clock, retry policy and retry loop."""

import random

import pytest

from repro.web.http import ConnectTimeout, DnsFailure, TooManyRedirects
from repro.web.resilience import (
    OutcomeStatus,
    RetryPolicy,
    SimulatedClock,
    classify_error,
    execute_with_policy,
)


class TestSimulatedClock:
    def test_advance_and_sleep(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.sleep(0.5)
        assert clock.now() == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)


class TestRetryPolicy:
    def test_exponential_backoff_without_jitter(self):
        policy = RetryPolicy(base_delay=0.5, multiplier=2.0, max_delay=8.0)
        assert [policy.backoff_delay(n) for n in (1, 2, 3, 4, 5, 6)] == \
            [0.5, 1.0, 2.0, 4.0, 8.0, 8.0]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.25)
        rng = random.Random(4)
        delays = [policy.backoff_delay(1, rng) for _ in range(200)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert len(set(delays)) > 1

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy()
        a = [policy.backoff_delay(n, random.Random(7)) for n in (1, 2, 3)]
        b = [policy.backoff_delay(n, random.Random(7)) for n in (1, 2, 3)]
        assert a == b

    def test_retryable_predicate(self):
        policy = RetryPolicy()
        assert policy.is_retryable("dns")
        assert policy.is_retryable("server-error")
        assert not policy.is_retryable("redirect-loop")
        assert not policy.is_retryable("invalid-target")

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestClassifyError:
    def test_taxonomy_labels(self):
        assert classify_error(DnsFailure("x")) == "dns"
        assert classify_error(ConnectTimeout("x")) == "connect-timeout"
        assert classify_error(TooManyRedirects("x")) == "redirect-loop"

    def test_fallbacks(self):
        assert classify_error(ValueError("bad")) == "invalid-target"
        assert classify_error(KeyError("?")) == "unexpected"


class TestExecuteWithPolicy:
    def test_first_attempt_success(self):
        out = execute_with_policy(lambda n: "ok", policy=RetryPolicy(),
                                  clock=SimulatedClock())
        assert (out.value, out.status, out.attempts, out.error_class) == \
            ("ok", OutcomeStatus.SUCCESS, 1, None)

    def test_degraded_after_retries_keeps_recovered_class(self):
        def attempt(n):
            if n < 3:
                raise ConnectTimeout("flaky")
            return "ok"

        clock = SimulatedClock()
        out = execute_with_policy(attempt, policy=RetryPolicy(),
                                  clock=clock)
        assert out.status is OutcomeStatus.DEGRADED
        assert out.attempts == 3
        assert out.error_class == "connect-timeout"
        assert clock.now() > 0.0, "backoff must burn simulated time"

    def test_non_retryable_fails_fast(self):
        def attempt(n):
            raise TooManyRedirects("loop")

        out = execute_with_policy(attempt, policy=RetryPolicy(),
                                  clock=SimulatedClock())
        assert out.status is OutcomeStatus.FAILED
        assert out.attempts == 1
        assert out.error_class == "redirect-loop"

    def test_exhausted_attempts_fail(self):
        calls = []

        def attempt(n):
            calls.append(n)
            raise DnsFailure("gone")

        out = execute_with_policy(
            attempt, policy=RetryPolicy(max_attempts=4),
            clock=SimulatedClock())
        assert out.status is OutcomeStatus.FAILED
        assert calls == [1, 2, 3, 4]
