"""Bounded retries with seeded backoff jitter for the crawl.

The Section 5 survey visits thousands of hosts; at that scale failures
are the norm, not the exception.  This module is the resilience layer
every survey visit routes through, and it is one path:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic seeded jitter, gated by an error-class predicate;
* :func:`execute_with_policy` — the retry loop itself, which never
  raises and ends every call in a :class:`CallOutcome`.

There is no circuit breaker: the survey runs every target
shared-nothing (:mod:`repro.parallel.scheduler`) and its targets are
distinct domains, so no per-host failure history could ever carry
from one visit to the next.

Time is simulated (:class:`SimulatedClock`): backoff sleeps and injected
latencies advance a deterministic clock, so a million-visit crawl with
ten-second read timeouts still *runs* in milliseconds and two runs with
the same seed produce identical latency figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generic, TypeVar

from repro.obs import OBS

__all__ = [
    "SimulatedClock",
    "OutcomeStatus",
    "classify_error",
    "RetryPolicy",
    "CallOutcome",
    "execute_with_policy",
    "DEFAULT_RETRYABLE_CLASSES",
]

_T = TypeVar("_T")


class SimulatedClock:
    """A deterministic monotonic clock a crawler and its injector share."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self._now += seconds

    def rewind(self, to: float = 0.0) -> None:
        """Reset the clock to an absolute position.

        Elapsed times are float *differences*, and ``(t + d) - t`` only
        equals ``d`` exactly when ``t`` is the same — so the crawler
        rewinds to zero before every visit to make each visit's
        latencies independent of how much simulated time earlier visits
        in the same process consumed.
        """
        self._now = float(to)

    #: Backoff code calls ``sleep``; on a simulated clock it just advances.
    sleep = advance


class OutcomeStatus(Enum):
    """How one resilient call ended."""

    SUCCESS = "success"     # first attempt succeeded
    DEGRADED = "degraded"   # succeeded, but only after retries
    FAILED = "failed"       # every attempt failed (tombstone)


def classify_error(exc: BaseException) -> str:
    """Map an exception to its error-class label.

    Taxonomy exceptions carry ``error_class`` themselves; anything else
    is bucketed coarsely so the crawl-health table never loses a
    failure to an unlabeled exception.
    """
    label = getattr(exc, "error_class", None)
    if label:
        return label
    if isinstance(exc, ValueError):
        return "invalid-target"
    return "unexpected"


#: Transient classes worth retrying; config errors (redirect loops,
#: invalid targets) fail fast.
DEFAULT_RETRYABLE_CLASSES = frozenset({
    "dns",
    "connect-timeout",
    "read-timeout",
    "server-error",
    "truncated-body",
    "transport",
})


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter."""

    max_attempts: int = 3
    base_delay: float = 0.25
    multiplier: float = 2.0
    max_delay: float = 8.0
    jitter: float = 0.25
    retryable_classes: frozenset[str] = DEFAULT_RETRYABLE_CLASSES

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def is_retryable(self, error_class: str) -> bool:
        return error_class in self.retryable_classes

    def backoff_delay(self, attempt: int,
                      rng: random.Random | None = None) -> float:
        """Delay before attempt ``attempt + 1`` (``attempt`` is 1-based).

        Jitter is a symmetric +/- ``jitter`` fraction drawn from ``rng``
        — pass a seeded ``random.Random`` (the crawler derives one per
        visit) to keep runs reproducible.
        """
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** (attempt - 1))
        if rng is not None and self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


@dataclass(slots=True)
class CallOutcome(Generic[_T]):
    """Result of :func:`execute_with_policy` — success or tombstone."""

    value: _T | None
    status: OutcomeStatus
    attempts: int
    #: Last failure's class; set even for DEGRADED outcomes (the fault
    #: the call recovered from), ``None`` for clean successes.
    error_class: str | None
    elapsed: float


def execute_with_policy(
    attempt_fn: Callable[[int], _T],
    *,
    policy: RetryPolicy,
    clock: SimulatedClock,
    rng: random.Random | None = None,
    classify: Callable[[BaseException], str] = classify_error,
) -> CallOutcome[_T]:
    """The retry loop: bounded attempts with jittered backoff.

    ``attempt_fn`` receives the 1-based attempt number and either
    returns a value or raises.  The loop never re-raises — every path
    ends in a :class:`CallOutcome`, which is what lets the crawler emit
    tombstones instead of dying mid-survey.
    """
    start = clock.now()
    attempts = 0
    last_error: str | None = None
    while True:
        attempts += 1
        try:
            value = attempt_fn(attempts)
        except Exception as exc:
            last_error = classify(exc)
            out_of_attempts = attempts >= policy.max_attempts
            if out_of_attempts or not policy.is_retryable(last_error):
                return CallOutcome(value=None,
                                   status=OutcomeStatus.FAILED,
                                   attempts=attempts,
                                   error_class=last_error,
                                   elapsed=clock.now() - start)
            delay = policy.backoff_delay(attempts, rng)
            if OBS.enabled:
                reg = OBS.registry
                reg.counter("web.retry.backoff_sleeps").inc()
                reg.counter("web.retry.failures",
                            error_class=last_error).inc()
                reg.histogram("web.retry.backoff_delay_ms").observe(
                    delay * 1000.0)
            clock.sleep(delay)
            continue
        status = (OutcomeStatus.SUCCESS if attempts == 1
                  else OutcomeStatus.DEGRADED)
        return CallOutcome(value=value, status=status, attempts=attempts,
                           error_class=last_error,
                           elapsed=clock.now() - start)
