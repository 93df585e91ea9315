"""Survey crawler: drive the instrumented browser across domain samples.

The paper's methodology (Section 5): visit only the landing page of each
sampled domain with an instrumented Adblock Plus, recording filter
activations.  The crawler here does that for any iterable of
``(domain, rank, group_index)`` triples, producing one
:class:`CrawlOutcome` per domain — success, degraded (succeeded after
retries), or a failed tombstone — so downstream Figure 6–8 aggregations
always know their denominator.  Successful outcomes carry a
:class:`CrawlRecord`, the raw material for every Section 5 table and
figure.

Every visit routes through the resilience layer
(:mod:`repro.web.resilience`): a :class:`~repro.web.resilience.RetryPolicy`
whose backoff jitter comes from an RNG derived from the visit's own
identity, and an optional :class:`~repro.web.faults.FaultInjector` that
injects the failure modes a live crawl sees.  Each visit is
shared-nothing — derived RNG, clock rewound to zero — so its outcome
does not depend on which targets were visited before it, in this
process or any other.  With no injector the pipeline is a clean
pass-through — a zero-fault crawl produces records identical to the
bare visit loop.

Two engine configurations matter (Figure 6 compares them):

* ``easylist+whitelist`` — ABP's default: EasyList plus Acceptable Ads;
* ``easylist-only`` — the whitelist disabled.

:func:`crawl` accepts any engine, so callers run it twice to produce the
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.filters.engine import AdblockEngine
from repro.obs import OBS
from repro.parallel.rng import derive_rng
from repro.web.browser import InstrumentedBrowser, PageVisit
from repro.web.faults import FaultInjector
from repro.web.resilience import (
    OutcomeStatus,
    RetryPolicy,
    SimulatedClock,
    execute_with_policy,
)
from repro.web.sites import SiteProfile, profile_for_domain

__all__ = [
    "CrawlTarget",
    "CrawlRecord",
    "CrawlStatus",
    "CrawlOutcome",
    "CrawlHealth",
    "crawl_health",
    "crawl",
    "Crawler",
]

#: A crawl outcome's status is the generic resilience outcome status.
CrawlStatus = OutcomeStatus

#: Purpose label mixed into every derived per-visit jitter seed.
_JITTER_LABEL = "crawl-jitter"


@dataclass(frozen=True, slots=True)
class CrawlTarget:
    """One domain to survey."""

    domain: str
    rank: int
    group_index: int = 0  # 0: top-5K, 1: 5K–50K, 2: 50K–100K, 3: 100K–1M
    category: str | None = None


@dataclass(slots=True)
class CrawlRecord:
    """Survey result for one domain."""

    target: CrawlTarget
    visit: PageVisit
    profile: SiteProfile

    @property
    def domain(self) -> str:
        return self.target.domain

    @property
    def rank(self) -> int:
        return self.target.rank

    @property
    def total_matches(self) -> int:
        return len(self.visit.activations)

    @property
    def whitelist_matches(self) -> int:
        return len(self.visit.whitelist_activations)

    @property
    def distinct_whitelist_filters(self) -> set[str]:
        return self.visit.distinct_whitelist_filters

    @property
    def any_activation(self) -> bool:
        return bool(self.visit.activations)


@dataclass(slots=True)
class CrawlOutcome:
    """One target's fate: a record, or a tombstone explaining the loss."""

    target: CrawlTarget
    status: CrawlStatus
    record: CrawlRecord | None = None
    error_class: str | None = None
    attempts: int = 1
    latency_ms: float = 0.0

    @property
    def domain(self) -> str:
        return self.target.domain

    @property
    def ok(self) -> bool:
        return self.record is not None

    @property
    def is_tombstone(self) -> bool:
        return self.record is None


@dataclass(slots=True)
class CrawlHealth:
    """Aggregate crawl telemetry for the crawl-health table."""

    total: int = 0
    succeeded: int = 0
    degraded: int = 0
    failed: int = 0
    total_attempts: int = 0
    retried: int = 0                      # outcomes needing >1 attempt
    total_latency_ms: float = 0.0
    #: Final error class -> tombstone count.
    failure_counts: dict[str, int] = field(default_factory=dict)
    #: Error class recovered from -> degraded-outcome count.
    recovered_counts: dict[str, int] = field(default_factory=dict)
    #: Flat observability snapshot (``repro.obs``) taken when the health
    #: summary was built with an enabled registry; empty otherwise, so
    #: un-instrumented runs render byte-identically to pre-obs output.
    metrics: dict[str, int | float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.succeeded + self.degraded

    @property
    def success_fraction(self) -> float:
        return self.completed / self.total if self.total else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.total_latency_ms / self.total if self.total else 0.0


def crawl_health(outcomes: Iterable[CrawlOutcome]) -> CrawlHealth:
    """Summarise a sequence of outcomes (possibly across groups/configs)."""
    health = CrawlHealth()
    for outcome in outcomes:
        health.total += 1
        health.total_attempts += outcome.attempts
        health.total_latency_ms += outcome.latency_ms
        if outcome.attempts > 1:
            health.retried += 1
        if outcome.status is CrawlStatus.SUCCESS:
            health.succeeded += 1
        elif outcome.status is CrawlStatus.DEGRADED:
            health.degraded += 1
            label = outcome.error_class or "unknown"
            health.recovered_counts[label] = (
                health.recovered_counts.get(label, 0) + 1)
        else:
            health.failed += 1
            label = outcome.error_class or "unknown"
            health.failure_counts[label] = (
                health.failure_counts.get(label, 0) + 1)
    if OBS.enabled:
        health.metrics = OBS.registry.flat()
    return health


def _validate_target(target: CrawlTarget) -> None:
    domain = target.domain
    if not isinstance(domain, str) or not domain.strip():
        raise ValueError(
            f"invalid crawl target: empty domain (rank={target.rank!r})")
    if domain != domain.strip():
        raise ValueError(
            f"invalid crawl target: domain {domain!r} has stray whitespace")
    if target.rank < 0:
        raise ValueError(
            f"invalid crawl target {domain!r}: negative rank "
            f"{target.rank}")


class Crawler:
    """A reusable crawler bound to one engine configuration.

    ``profile_factory`` lets callers control how a target becomes a
    :class:`SiteProfile` — the survey uses this to wire explicitly
    whitelisted publishers to their restricted filters.  The default
    factory is :func:`repro.web.sites.profile_for_domain`.

    ``fault_injector`` (optional) subjects every visit to a
    :class:`~repro.web.faults.FaultPlan`; ``retry_policy`` governs how
    hard each target is retried; ``jitter_seed`` roots the per-visit
    backoff-jitter derivation (the survey passes its ``fault_seed``).
    The crawler shares the injector's simulated clock when one is
    present so injected latencies and backoff sleeps add up on one
    timeline.
    """

    def __init__(self, engine: AdblockEngine, *,
                 profile_factory=None,
                 retry_policy: RetryPolicy | None = None,
                 fault_injector: FaultInjector | None = None,
                 jitter_seed: int = 0,
                 **browser_kwargs) -> None:
        self.browser = InstrumentedBrowser(engine, **browser_kwargs)
        self._profile_factory = profile_factory or (
            lambda target: profile_for_domain(
                target.domain, target.rank,
                group_index=target.group_index,
                category=target.category,
            ))
        self.policy = retry_policy or RetryPolicy()
        self.injector = fault_injector
        self.clock = (fault_injector.clock if fault_injector is not None
                      else SimulatedClock())
        self.jitter_seed = jitter_seed

    def visit_target(self, target: CrawlTarget, *,
                     unit: int | None = None) -> CrawlOutcome:
        """Visit one (validated) target through the resilience pipeline.

        The visit is shared-nothing: the clock is rewound to zero, so
        its latency is an exact float sum from ``t=0``, and its backoff
        jitter comes from ``derive_rng(jitter_seed, "crawl-jitter",
        domain, rank)``, not from a stream earlier visits consumed.
        ``unit`` is the target's global index in a survey's unit order;
        the executor (:mod:`repro.parallel.scheduler`) passes it so a
        stitched cross-worker trace names every visit by its position.
        """
        _validate_target(target)
        profile = self._profile_factory(target)
        self.clock.rewind()
        rng = derive_rng(self.jitter_seed, _JITTER_LABEL, target.domain,
                         target.rank)

        def attempt(_n: int) -> PageVisit:
            if self.injector is not None:
                return self.injector.run(
                    target.domain,
                    lambda: self.browser.visit(profile),
                    group_index=target.group_index)
            return self.browser.visit(profile)

        if OBS.enabled:
            attrs: dict[str, object] = {"domain": target.domain,
                                        "group": target.group_index}
            if unit is not None:
                attrs["unit"] = unit
            with OBS.tracer.span("web.crawl.visit", **attrs):
                call = execute_with_policy(
                    attempt, policy=self.policy, clock=self.clock,
                    rng=rng)
            reg = OBS.registry
            reg.counter("web.crawl.outcomes",
                        status=call.status.value).inc()
            reg.counter("web.crawl.attempts").inc(call.attempts)
            if call.attempts > 1:
                reg.counter("web.crawl.retries").inc(call.attempts - 1)
            reg.histogram("web.crawl.latency_ms").observe(
                call.elapsed * 1000.0)
        else:
            call = execute_with_policy(
                attempt, policy=self.policy, clock=self.clock, rng=rng)
        record = None
        if call.value is not None:
            record = CrawlRecord(target=target, visit=call.value,
                                 profile=profile)
        return CrawlOutcome(target=target, status=call.status,
                            record=record, error_class=call.error_class,
                            attempts=call.attempts,
                            latency_ms=call.elapsed * 1000.0)

    def survey(self, targets: Iterable[CrawlTarget]) -> list[CrawlOutcome]:
        """Survey ``targets``, one :class:`CrawlOutcome` each.

        Never raises for network-shaped trouble — failed domains become
        tombstones.  Malformed targets (empty domain, negative rank)
        raise :class:`ValueError`: they are caller bugs, not weather.
        """
        return [self.visit_target(target) for target in targets]

    def survey_records(self,
                       targets: Iterable[CrawlTarget]) -> list[CrawlRecord]:
        """Like :meth:`survey`, keeping only the successful records."""
        return [outcome.record for outcome in self.survey(targets)
                if outcome.record is not None]

    def health(self, outcomes: Iterable[CrawlOutcome]) -> CrawlHealth:
        return crawl_health(outcomes)


def crawl(engine: AdblockEngine,
          targets: Sequence[CrawlTarget],
          **browser_kwargs) -> list[CrawlRecord]:
    """One-shot convenience: survey ``targets`` with ``engine``.

    Returns only the successful records (without an injector every
    target succeeds, so this is the happy-path crawl).
    """
    return Crawler(engine, **browser_kwargs).survey_records(targets)
