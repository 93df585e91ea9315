"""Unit tests for the survey crawler."""

import pytest

from repro.filters.engine import AdblockEngine
from repro.filters.filterlist import parse_filter_list
from repro.measurement.samples import SampleGroup
from repro.parallel.scheduler import run_stealing_survey
from repro.web.crawler import (
    Crawler,
    CrawlStatus,
    CrawlTarget,
    crawl,
    crawl_health,
)
from repro.web.crawlstate import snapshot_outcome
from repro.web.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.web.resilience import RetryPolicy
from repro.web.sites import SiteProfile


def engine_with(filters: str) -> AdblockEngine:
    engine = AdblockEngine()
    engine.subscribe(parse_filter_list(filters, name="easylist"))
    return engine


TARGETS = [
    CrawlTarget(domain="reddit.com", rank=31, group_index=0),
    CrawlTarget(domain="wikipedia.org", rank=7, group_index=0),
    CrawlTarget(domain="randomsite-abc.com", rank=70_123, group_index=2),
]


class TestCrawl:
    def test_one_record_per_target(self):
        records = crawl(engine_with("||adzerk.net^"), TARGETS)
        assert [r.domain for r in records] == [t.domain for t in TARGETS]

    def test_ranks_carried_through(self):
        records = crawl(engine_with("||adzerk.net^"), TARGETS)
        assert records[0].rank == 31

    def test_record_metrics(self):
        records = crawl(engine_with("||adzerk.net^$third-party"), TARGETS)
        reddit = records[0]
        assert reddit.total_matches >= 1
        assert reddit.any_activation
        wikipedia = records[1]
        assert not wikipedia.any_activation

    def test_whitelist_matches_empty_without_whitelist(self):
        records = crawl(engine_with("||adzerk.net^"), TARGETS)
        assert all(r.whitelist_matches == 0 for r in records)

    def test_custom_profile_factory(self):
        def factory(target: CrawlTarget) -> SiteProfile:
            return SiteProfile(domain=target.domain, rank=target.rank,
                               networks=["adzerk"])

        crawler = Crawler(engine_with("||adzerk.net^$third-party"),
                          profile_factory=factory)
        records = crawler.survey_records(TARGETS)
        assert all(r.total_matches >= 1 for r in records)

    def test_deterministic_across_runs(self):
        first = crawl(engine_with("||adzerk.net^"), TARGETS)
        second = crawl(engine_with("||adzerk.net^"), TARGETS)
        assert [r.total_matches for r in first] == \
            [r.total_matches for r in second]

    def test_survey_outcomes_clean_run(self):
        crawler = Crawler(engine_with("||adzerk.net^"))
        outcomes = crawler.survey(TARGETS)
        assert all(o.status is CrawlStatus.SUCCESS for o in outcomes)
        assert all(o.attempts == 1 for o in outcomes)
        assert all(o.record is not None for o in outcomes)
        assert all(o.error_class is None for o in outcomes)

    def test_group_index_influences_profile(self):
        deep_targets = [
            CrawlTarget(domain=f"deep{i}.com", rank=500_000 + i,
                        group_index=3)
            for i in range(50)
        ]
        top_targets = [
            CrawlTarget(domain=f"deep{i}.com", rank=500_000 + i,
                        group_index=0)
            for i in range(50)
        ]
        deep = crawl(engine_with("||doubleclick.net^"), deep_targets)
        top = crawl(engine_with("||doubleclick.net^"), top_targets)
        assert sum(len(r.profile.networks) for r in top) >= \
            sum(len(r.profile.networks) for r in deep)


class TestTargetValidation:
    """Satellite: malformed targets must fail loudly, not crawl garbage."""

    def test_empty_domain_rejected(self):
        crawler = Crawler(engine_with("||adzerk.net^"))
        with pytest.raises(ValueError, match="empty domain"):
            crawler.survey([CrawlTarget(domain="", rank=1)])

    def test_whitespace_domain_rejected(self):
        crawler = Crawler(engine_with("||adzerk.net^"))
        with pytest.raises(ValueError, match="empty domain"):
            crawler.survey([CrawlTarget(domain="   ", rank=1)])

    def test_padded_domain_rejected(self):
        crawler = Crawler(engine_with("||adzerk.net^"))
        with pytest.raises(ValueError, match="stray whitespace"):
            crawler.survey([CrawlTarget(domain=" a.com ", rank=1)])

    def test_negative_rank_rejected(self):
        crawler = Crawler(engine_with("||adzerk.net^"))
        with pytest.raises(ValueError, match="negative rank"):
            crawler.survey([CrawlTarget(domain="a.com", rank=-5)])

    def test_validation_applies_under_fault_injection(self):
        crawler = Crawler(
            engine_with("||adzerk.net^"),
            fault_injector=FaultInjector(FaultPlan.uniform(1.0, seed=1)))
        with pytest.raises(ValueError):
            crawler.survey([CrawlTarget(domain="", rank=1)])


def dns_only_injector():
    return FaultInjector(FaultPlan(
        [FaultSpec(kind=FaultKind.DNS_FAILURE, rate=1.0)], seed=1))


def flaky_injector(failures=1):
    return FaultInjector(FaultPlan(
        [FaultSpec(kind=FaultKind.FLAKY, rate=1.0,
                   flaky_failures=failures)], seed=1))


class TestResilientSurvey:
    def test_hard_faults_become_tombstones_not_raises(self):
        crawler = Crawler(engine_with("||adzerk.net^"),
                          fault_injector=dns_only_injector())
        outcomes = crawler.survey(TARGETS)
        assert [o.domain for o in outcomes] == [t.domain for t in TARGETS]
        assert all(o.status is CrawlStatus.FAILED for o in outcomes)
        assert all(o.record is None for o in outcomes)
        assert all(o.error_class == "dns" for o in outcomes)
        assert all(o.is_tombstone for o in outcomes)

    def test_flaky_targets_degrade_but_succeed(self):
        crawler = Crawler(engine_with("||adzerk.net^"),
                          fault_injector=flaky_injector(failures=1))
        outcomes = crawler.survey(TARGETS)
        assert all(o.status is CrawlStatus.DEGRADED for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert all(o.record is not None for o in outcomes)
        assert all(o.error_class == "connect-timeout" for o in outcomes)

    def test_flaky_beyond_retry_budget_fails(self):
        crawler = Crawler(
            engine_with("||adzerk.net^"),
            retry_policy=RetryPolicy(max_attempts=2),
            fault_injector=flaky_injector(failures=5))
        outcomes = crawler.survey(TARGETS)
        assert all(o.status is CrawlStatus.FAILED for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)

    def test_degraded_records_match_clean_run(self):
        """A recovered visit must look exactly like an unfaulted one."""
        clean = crawl(engine_with("||adzerk.net^$third-party"), TARGETS)
        crawler = Crawler(engine_with("||adzerk.net^$third-party"),
                          fault_injector=flaky_injector(failures=1))
        degraded = [o.record for o in crawler.survey(TARGETS)]
        assert [r.total_matches for r in clean] == \
            [r.total_matches for r in degraded]
        assert [r.visit.blocked_count for r in clean] == \
            [r.visit.blocked_count for r in degraded]

    def test_latency_accumulates_on_simulated_clock(self):
        crawler = Crawler(engine_with("||adzerk.net^"),
                          fault_injector=flaky_injector(failures=1))
        outcomes = crawler.survey(TARGETS)
        assert all(o.latency_ms > 0 for o in outcomes)
        assert crawler.clock.now() > 0

    def test_crawl_health_summary(self):
        crawler = Crawler(engine_with("||adzerk.net^"),
                          fault_injector=dns_only_injector())
        health = crawl_health(crawler.survey(TARGETS))
        assert health.total == len(TARGETS)
        assert health.failed == len(TARGETS)
        assert health.failure_counts == {"dns": len(TARGETS)}
        assert health.success_fraction == 0.0


class TestDeterminism:
    """Satellite: same seed -> identical CrawlOutcome sequences."""

    @staticmethod
    def run_once(seed):
        injector = FaultInjector(FaultPlan.uniform(0.5, seed=seed))
        crawler = Crawler(engine_with("||adzerk.net^"),
                          fault_injector=injector, jitter_seed=seed)
        targets = [CrawlTarget(domain=f"site{i}.com", rank=i + 1,
                               group_index=i % 4)
                   for i in range(120)]
        return [(o.domain, o.status, o.error_class, o.attempts,
                 round(o.latency_ms, 9))
                for o in crawler.survey(targets)]

    def test_same_seed_identical_outcomes(self):
        assert self.run_once(7) == self.run_once(7)

    def test_different_seed_differs(self):
        assert self.run_once(7) != self.run_once(8)

    def test_survey_matches_executor_under_faults(self):
        """A crawler surveying targets in one loop gives the executor's
        per-target outcomes: every visit derives its own jitter and
        starts its clock at zero, wherever and after whatever it runs."""
        engine = engine_with("||adzerk.net^")

        def make_crawler() -> Crawler:
            return Crawler(engine,
                           fault_injector=FaultInjector(
                               FaultPlan.uniform(0.5, seed=7)),
                           jitter_seed=7)

        targets = tuple(CrawlTarget(domain=f"site{i}.com", rank=i + 1,
                                    group_index=i % 4)
                        for i in range(120))
        looped = [snapshot_outcome(o)
                  for o in make_crawler().survey(targets)]
        executed = run_stealing_survey(
            [SampleGroup(name="all", group_index=0, targets=targets)],
            crawler_factory=make_crawler, workers=1)["all"]
        assert [snapshot_outcome(o) for o in executed] == looped
        # Retries happened, so backoff jitter was actually drawn.
        assert any(o["attempts"] > 1 and o["record"] is not None
                   for o in looped)
