"""Acceptance tests for the fault-injection + resilient crawl pipeline.

Covers the PR's acceptance criteria end to end: a 1,000-domain crawl
with 20% injected faults completes without raising and reports
per-error-class counts; a zero-fault survey is byte-identical to the
pre-resilience crawler on the Figure 6/7 outputs; the micro-benchmark
harness is smoke-invoked so it cannot rot.
"""

from __future__ import annotations

import pytest

from repro.filters.engine import AdblockEngine
from repro.filters.filterlist import parse_filter_list
from repro.measurement.stats import (
    figure6_site_matches,
    figure7_ecdf,
    table4_top_filters,
)
from repro.measurement.survey import (
    SurveyConfig,
    SurveyResult,
    build_engines,
    make_profile_factory,
    run_survey,
)
from repro.reporting.tables import render_crawl_health, render_table
from repro.web.browser import InstrumentedBrowser
from repro.web.crawler import (
    Crawler,
    CrawlRecord,
    CrawlStatus,
    CrawlTarget,
    crawl_health,
)
from repro.web.faults import FaultInjector, FaultPlan


def simple_engine() -> AdblockEngine:
    engine = AdblockEngine()
    engine.subscribe(parse_filter_list(
        "||adzerk.net^$third-party\n||doubleclick.net^",
        name="easylist"))
    return engine


class TestThousandDomainFaultySurvey:
    """Acceptance: 1,000 targets, 20% faults, no raise, full accounting."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        injector = FaultInjector(FaultPlan.uniform(0.20, seed=2015))
        crawler = Crawler(simple_engine(), fault_injector=injector,
                          jitter_seed=2015)
        targets = [CrawlTarget(domain=f"survey{i}.com", rank=i + 1,
                               group_index=i % 4)
                   for i in range(1_000)]
        return crawler.survey(targets)

    def test_completes_with_one_outcome_per_target(self, outcomes):
        assert len(outcomes) == 1_000
        assert [o.target.rank for o in outcomes] == list(range(1, 1_001))

    def test_fault_rate_visible_in_outcomes(self, outcomes):
        touched = [o for o in outcomes
                   if o.status is not CrawlStatus.SUCCESS
                   or o.attempts > 1]
        # ~20% of domains carry a fault; retries recover a chunk of them.
        assert 0.12 <= len(touched) / len(outcomes) <= 0.28

    def test_tombstones_carry_error_classes(self, outcomes):
        tombstones = [o for o in outcomes if o.is_tombstone]
        assert tombstones
        assert all(o.error_class for o in tombstones)
        assert all(o.record is None for o in tombstones)

    def test_health_reports_per_error_class_counts(self, outcomes):
        health = crawl_health(outcomes)
        assert health.total == 1_000
        assert health.succeeded + health.degraded + health.failed == 1_000
        classes = set(health.failure_counts) | set(health.recovered_counts)
        # The uniform mix injects many modes; several must be visible.
        assert len(classes) >= 4
        assert sum(health.failure_counts.values()) == health.failed
        assert sum(health.recovered_counts.values()) == health.degraded

    def test_health_table_renders_every_class(self, outcomes):
        health = crawl_health(outcomes)
        table = render_crawl_health(health)
        for label in health.failure_counts:
            assert f"failed: {label}" in table
        for label in health.recovered_counts:
            assert f"recovered: {label}" in table
        assert "success" in table and "degraded" in table

    def test_downstream_stats_use_survivor_denominator(self, outcomes):
        records = [o.record for o in outcomes if o.record is not None]
        assert 0 < len(records) < 1_000
        assert table4_top_filters(records) == []  # no whitelist loaded
        ecdf = figure7_ecdf(records)
        assert ecdf.activating_domains == 0


def pre_resilience_survey(history, config: SurveyConfig) -> SurveyResult:
    """Replica of the pre-PR ``run_survey``: bare visit loops."""
    from repro.measurement.samples import build_samples

    groups = build_samples(history.population.ranking,
                           top_n=config.top_n,
                           stratum_size=config.stratum_size)
    factory = make_profile_factory(history)
    engine, easylist, whitelist = build_engines(history,
                                                with_whitelist=True)
    result = SurveyResult(groups=groups, whitelist=whitelist,
                          easylist=easylist)

    def bare(an_engine, targets):
        browser = InstrumentedBrowser(an_engine)
        records = []
        for target in targets:
            profile = factory(target)
            records.append(CrawlRecord(target=target,
                                       visit=browser.visit(profile),
                                       profile=profile))
        return records

    for group in groups:
        result.records[group.name] = bare(engine, group.targets)
    engine_plain, _, _ = build_engines(history, with_whitelist=False)
    for group in groups:
        result.records_easylist_only[group.name] = bare(engine_plain,
                                                        group.targets)
    return result


class TestZeroFaultEquivalence:
    """Acceptance: fault_rate=0 reproduces the pre-PR crawler exactly."""

    CONFIG = SurveyConfig(top_n=200, stratum_size=40, fault_rate=0.0)

    @pytest.fixture(scope="class")
    def resilient_result(self, history):
        return run_survey(history, self.CONFIG)

    @pytest.fixture(scope="class")
    def bare_result(self, history):
        return pre_resilience_survey(history, self.CONFIG)

    @staticmethod
    def fig6_render(result: SurveyResult) -> str:
        bars = figure6_site_matches(result, top=50)
        return render_table(
            ("site", "rank", "wl", "el+", "el-"),
            [(b.domain, b.rank, b.whitelist_matches,
              b.easylist_matches_with, b.easylist_matches_without)
             for b in bars])

    def test_figure6_byte_identical(self, resilient_result, bare_result):
        assert self.fig6_render(resilient_result) == \
            self.fig6_render(bare_result)

    def test_figure7_byte_identical(self, resilient_result, bare_result):
        ours = figure7_ecdf(resilient_result.top5k)
        theirs = figure7_ecdf(bare_result.top5k)
        assert ours == theirs

    def test_table4_byte_identical(self, resilient_result, bare_result):
        assert table4_top_filters(resilient_result.top5k, top=10) == \
            table4_top_filters(bare_result.top5k, top=10)

    def test_no_outcome_is_lost_or_degraded(self, resilient_result):
        outcomes = resilient_result.all_outcomes()
        assert outcomes
        assert all(o.status is CrawlStatus.SUCCESS for o in outcomes)
        health = resilient_result.crawl_health()
        assert health.failed == 0
        assert health.total == health.succeeded


class TestFaultySurveyThroughRunSurvey:
    def test_survey_result_accounts_for_losses(self, history):
        config = SurveyConfig(top_n=120, stratum_size=30,
                              fault_rate=0.25, fault_seed=7,
                              max_retries=1,
                              compare_without_whitelist=False)
        result = run_survey(history, config)
        health = result.crawl_health()
        assert health.failed > 0
        assert health.total == sum(
            len(outcomes) for outcomes in result.outcomes.values())
        for group in result.groups:
            losses = sum(1 for o in result.outcomes[group.name]
                         if o.is_tombstone)
            assert len(result.records[group.name]) == \
                len(result.outcomes[group.name]) - losses

    def test_both_configs_see_identical_faults(self, history):
        config = SurveyConfig(top_n=100, stratum_size=25,
                              fault_rate=0.3, fault_seed=11,
                              max_retries=1)
        result = run_survey(history, config)
        for group in result.groups:
            with_wl = [(o.domain, o.status, o.error_class, o.attempts)
                       for o in result.outcomes[group.name]]
            without = [(o.domain, o.status, o.error_class, o.attempts)
                       for o in
                       result.outcomes_easylist_only[group.name]]
            assert with_wl == without


class TestBenchmarkSmoke:
    """Satellite: keep the overhead micro-benchmark importable and sane."""

    def test_compare_overhead_smoke(self):
        from benchmarks.bench_crawl_resilience import compare_overhead

        result = compare_overhead(n=20, repeats=1)
        assert result["targets"] == 20
        assert result["bare_s"] > 0
        assert result["resilient_s"] > 0

    def test_bare_and_resilient_paths_agree(self):
        from benchmarks.bench_crawl_resilience import (
            bare_crawl,
            make_targets,
            resilient_crawl,
        )

        targets = make_targets(25)
        bare = bare_crawl(targets)
        resilient = resilient_crawl(targets)
        assert [r.total_matches for r in bare] == \
            [o.record.total_matches for o in resilient]
