"""Micro-benchmark: overhead of the resilient crawl pipeline.

The retry/backoff machinery wraps *every* survey visit, so on a
clean run (no injected faults) it must be close to free — the whole
point of threading resilience through the crawler is that scaling PRs
can rely on it unconditionally.  This benchmark crawls the same targets
through a bare ``InstrumentedBrowser.visit`` loop (the pre-resilience
crawler) and through ``Crawler.survey``, and asserts the resilient path
costs less than 10% extra wall-clock.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_crawl_resilience.py -s

A tiny smoke invocation is wired into the tier-1 suite
(``tests/integration/test_crawl_resilience.py``), so regressions that
break the harness itself surface on every test run.
"""

from __future__ import annotations

import time

from repro.filters.engine import AdblockEngine
from repro.filters.filterlist import parse_filter_list
from repro.web.browser import InstrumentedBrowser
from repro.web.crawler import Crawler, CrawlRecord, CrawlTarget
from repro.web.sites import profile_for_domain

#: A small but non-trivial engine so per-visit work is realistic.
_FILTERS = "\n".join([
    "||adzerk.net^$third-party",
    "||doubleclick.net^",
    "||googlesyndication.com^",
    "@@||taboola.com^$document",
])


def make_engine() -> AdblockEngine:
    engine = AdblockEngine()
    engine.subscribe(parse_filter_list(_FILTERS, name="easylist"))
    return engine


def make_targets(n: int) -> list[CrawlTarget]:
    return [CrawlTarget(domain=f"bench{i}.example-site.com", rank=i + 1,
                        group_index=i % 4)
            for i in range(n)]


def bare_crawl(targets: list[CrawlTarget]) -> list[CrawlRecord]:
    """The pre-resilience survey: a bare visit loop, no policy."""
    browser = InstrumentedBrowser(make_engine())
    records = []
    for target in targets:
        profile = profile_for_domain(target.domain, target.rank,
                                     group_index=target.group_index)
        visit = browser.visit(profile)
        records.append(CrawlRecord(target=target, visit=visit,
                                   profile=profile))
    return records


def resilient_crawl(targets: list[CrawlTarget]):
    """The production path: Crawler.survey with zero injected faults."""
    return Crawler(make_engine()).survey(targets)


def _best_of(fn, targets, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(targets)
        best = min(best, time.perf_counter() - start)
    return best


def compare_overhead(n: int = 400, repeats: int = 3) -> dict:
    """Time both paths over ``n`` targets; return timings and ratio."""
    targets = make_targets(n)
    # Warm both paths once (imports, caches) before timing.
    bare_crawl(targets[:10])
    resilient_crawl(targets[:10])
    bare = _best_of(bare_crawl, targets, repeats)
    resilient = _best_of(resilient_crawl, targets, repeats)
    return {
        "targets": n,
        "bare_s": bare,
        "resilient_s": resilient,
        "ratio": resilient / bare if bare else float("inf"),
    }


def test_resilient_pipeline_overhead_under_10_percent():
    result = compare_overhead(n=400, repeats=5)
    print(f"\nbare: {result['bare_s'] * 1e3:.1f} ms, "
          f"resilient: {result['resilient_s'] * 1e3:.1f} ms, "
          f"overhead: {(result['ratio'] - 1) * 100:+.1f}% "
          f"({result['targets']} targets)")
    assert result["ratio"] < 1.10, (
        f"resilient crawl overhead {result['ratio']:.3f}x exceeds 1.10x")
