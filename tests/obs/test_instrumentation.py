"""The instrumented hot paths actually emit the documented metrics.

Every test scopes observability with ``observe()`` so nothing leaks
into other tests; a final test asserts the global switchboard is off.
"""

import random

from repro.filters import (
    AdblockEngine,
    ContentType,
    parse_filter,
    parse_filter_list,
)
from repro.filters.index import FilterIndex
from repro.obs import OBS, observe
from repro.web.crawler import crawl_health
from repro.web.http import ConnectTimeout
from repro.web.resilience import (
    RetryPolicy,
    SimulatedClock,
    execute_with_policy,
)


class TestParserInstrumentation:
    def test_counts_by_parse_outcome(self):
        with observe() as (registry, _):
            parse_filter("! a comment")
            parse_filter("||adzerk.net^")
            parse_filter("@@||gstatic.com^$third-party")
            parse_filter("reddit.com###siteTable_organic")
            parse_filter("@@||bad.example^$bogus-option")
        flat = registry.flat()
        assert flat["filters.parse.lines{kind=comment}"] == 1
        assert flat["filters.parse.lines{kind=request}"] == 2
        assert flat["filters.parse.lines{kind=element}"] == 1
        assert flat["filters.parse.lines{kind=invalid}"] == 1

    def test_nothing_recorded_when_disabled(self):
        registry_before = OBS.registry
        parse_filter("||adzerk.net^")
        assert OBS.enabled is False
        assert OBS.registry is registry_before
        assert OBS.registry.samples() == []


class TestIndexInstrumentation:
    def test_add_splits_keyword_vs_fallback(self):
        with observe() as (registry, _):
            FilterIndex([parse_filter("||adzerk.net^"),
                         parse_filter("/banner[0-9]+/")])
        flat = registry.flat()
        assert flat["filters.index.filters{bucket=keyword}"] == 1
        assert flat["filters.index.filters{bucket=fallback}"] == 1

    def test_probe_counters(self):
        index = FilterIndex([parse_filter("||adzerk.net^"),
                             parse_filter("/banner[0-9]+/")])
        with observe() as (registry, _):
            hits = list(index.candidates("http://adzerk.net/ad.js"))
        assert len(hits) == 2  # keyword bucket + fallback
        flat = registry.flat()
        assert flat["filters.index.probes"] == 1
        assert flat["filters.index.candidates_yielded"] == 2
        assert flat["filters.index.fallback_scanned"] == 1
        assert flat["filters.index.bucket_hits"] == 1
        assert flat["filters.index.bucket_misses"] >= 1

    def test_candidates_identical_enabled_vs_disabled(self):
        filters = [parse_filter("||adzerk.net^"),
                   parse_filter("||doubleclick.net/ads"),
                   parse_filter("/banner[0-9]+/"),
                   parse_filter("@@||gstatic.com^$third-party")]
        index = FilterIndex(filters)
        url = "http://sub.adzerk.net/banner12/ads.js"
        bare = list(index.candidates(url))
        with observe():
            instrumented = list(index.candidates(url))
        assert instrumented == bare


class TestCompiledIndexInstrumentation:
    def make_compiled(self):
        from repro.filters.compiled.index import CompiledFilterIndex
        index = FilterIndex([parse_filter("||adzerk.net^"),
                             parse_filter("||doubleclick.net/ads"),
                             parse_filter("/banner[0-9]+/")])
        return CompiledFilterIndex.compile(index, name="blocking")

    def test_compile_records_builds_and_states(self):
        with observe() as (registry, _):
            compiled = self.make_compiled()
        flat = registry.flat()
        assert flat["filters.index.automaton_builds"
                    "{index=blocking,source=compile}"] == 1
        assert flat["filters.index.automaton_states{index=blocking}"] == \
            compiled.automaton.states

    def test_probe_counts_over_distinct_tokens(self):
        compiled = self.make_compiled()
        url = "http://adzerk.net/ads/adzerk"   # 'adzerk' repeats
        with observe() as (registry, _):
            candidates = list(compiled.candidates(url))
        assert candidates  # keyword bucket + fallback
        flat = registry.flat()
        assert flat["filters.index.probes"] == 1
        # Distinct tokens: http, adzerk, net, ads; only adzerk is a
        # keyword.
        assert flat["filters.index.bucket_hits"] == 1
        assert flat["filters.index.bucket_misses"] == 3
        assert flat["filters.index.fallback_scanned"] == 1

    def test_artifact_load_events(self, tmp_path):
        from repro.serve.reload import (build_snapshot_from_sources,
                                        persist_snapshot_artifact)
        from repro.state.snapshots import SnapshotStore
        store = SnapshotStore(str(tmp_path / "store"))
        sources = [("easylist", "||ads.example^")]
        with observe() as (registry, _):
            snapshot = build_snapshot_from_sources(sources, store)
            persist_snapshot_artifact(store, snapshot, sources)
            build_snapshot_from_sources(sources, store)
        flat = registry.flat()
        assert flat["filters.index.automaton_artifact"
                    "{event=load_miss}"] == 1
        assert flat["filters.index.automaton_artifact{event=saved}"] == 1
        assert flat["filters.index.automaton_artifact"
                    "{event=load_hit}"] == 1


class TestEngineInstrumentation:
    def make_engine(self) -> AdblockEngine:
        engine = AdblockEngine()
        engine.subscribe(parse_filter_list("||adzerk.net^$third-party",
                                           name="easylist"))
        engine.subscribe(parse_filter_list(
            "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n"
            "@@||gstatic.com^$third-party",
            name="exceptionrules"))
        return engine

    def test_verdict_counters(self):
        engine = self.make_engine()
        with observe() as (registry, _):
            engine.check_request("http://static.adzerk.net/ads.js",
                                 ContentType.SCRIPT,
                                 page_host="www.reddit.com",
                                 request_host="static.adzerk.net")
            engine.check_request(
                "http://static.adzerk.net/reddit/ads.html",
                ContentType.SUBDOCUMENT,
                page_host="www.reddit.com",
                request_host="static.adzerk.net")
            engine.check_request("http://example.com/page.css",
                                 ContentType.STYLESHEET,
                                 page_host="example.com",
                                 request_host="example.com")
        flat = registry.flat()
        assert flat[
            "filters.engine.verdicts{verdict=block,via=match}"] == 1
        assert flat[
            "filters.engine.verdicts{verdict=allow,via=match}"] == 1
        assert flat[
            "filters.engine.verdicts{verdict=no_match,via=match}"] == 1

    def test_needless_activation_counter(self):
        engine = self.make_engine()
        with observe() as (registry, _):
            # gstatic exception fires with no blocking filter to
            # override — the Section 5 "needless activation".
            decision = engine.check_request(
                "http://www.gstatic.com/swiffy/v5.2/runtime.js",
                ContentType.SCRIPT,
                page_host="www.deviantart.com",
                request_host="www.gstatic.com")
        assert decision.verdict.value == "allow"
        flat = registry.flat()
        assert flat["filters.engine.needless_activations"] == 1

    def test_decisions_identical_enabled_vs_disabled(self):
        engine = self.make_engine()
        calls = [
            ("http://static.adzerk.net/ads.js", ContentType.SCRIPT,
             "www.reddit.com", "static.adzerk.net"),
            ("http://example.com/x.css", ContentType.STYLESHEET,
             "example.com", "example.com"),
        ]
        bare = [engine.check_request(u, t, page_host=p, request_host=r)
                for u, t, p, r in calls]
        with observe():
            instrumented = [
                engine.check_request(u, t, page_host=p, request_host=r)
                for u, t, p, r in calls]
        assert [d.verdict for d in bare] == [
            d.verdict for d in instrumented]


class TestResilienceInstrumentation:
    def test_retry_counters_and_backoff_histogram(self):
        def flaky(attempt: int) -> str:
            if attempt == 1:
                raise ConnectTimeout("injected")
            return "ok"

        with observe() as (registry, _):
            outcome = execute_with_policy(
                flaky,
                policy=RetryPolicy(max_attempts=3, jitter=0.0),
                clock=SimulatedClock(),
                rng=random.Random(0))
        assert outcome.value == "ok"
        flat = registry.flat()
        assert flat[
            "web.retry.failures{error_class=connect-timeout}"] == 1
        assert flat["web.retry.backoff_sleeps"] == 1
        assert flat["web.retry.backoff_delay_ms.count"] == 1


class TestCrawlHealthSnapshot:
    def test_metrics_embedded_only_when_enabled(self):
        assert crawl_health([]).metrics == {}
        with observe() as (registry, _):
            registry.counter("filters.index.probes").inc(7)
            health = crawl_health([])
        assert health.metrics == {"filters.index.probes": 7}

    def test_render_includes_embedded_metrics(self):
        from repro.reporting.tables import render_crawl_health

        with observe() as (registry, _):
            registry.counter("filters.index.probes").inc(7)
            health = crawl_health([])
        text = render_crawl_health(health)
        assert "filters.index.probes" in text
        # Disabled health renders without the metric rows.
        assert "filters.index.probes" not in render_crawl_health(
            crawl_health([]))


def test_global_state_left_disabled():
    """No test in this module may leak an enabled registry."""
    assert OBS.enabled is False
    assert OBS.registry.samples() == []
