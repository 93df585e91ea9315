"""The typed probe of the compiled index against an independent oracle.

``CompiledFilterIndex.match_all`` / ``match_first`` hand the matcher
only the filters of the request's content type, with the fallback's
literal regexes gated by a substring test.  The oracle here is the
plainest possible matcher: a linear scan of every filter.  For every
:class:`ContentType` member the typed ``match_all`` must hold exactly
the filters that scan finds.  Order is the probe order (URL tokens in
first-occurrence order, then the fallback), which a linear scan in
index order cannot reproduce once two buckets match; so the typed
answer must also equal the untyped candidate sequence filtered by
``matches`` — the legacy order that ``test_compiled_fuzz`` pins — and
``match_first`` must be its first element.

The work-counter test pins what the partitions buy: on a seeded survey
the matcher is offered a handful of candidates per probe, not the
whole fallback.
"""

import random

import pytest

from repro.filters.compiled.index import CompiledFilterIndex
from repro.filters.index import FilterIndex
from repro.filters.options import ContentType
from repro.filters.parser import RequestFilter, parse_filter
from repro.measurement.survey import SurveyConfig, run_survey
from repro.obs import observe

from tests.filters.test_compiled_fuzz import FUZZ_SEED, _build_corpus

SITEKEY = "MCwwDQYJKoZIhvcNAQEBBQADGwAwGAIRAKUfMGKbG2MgzaVkfyr7GSECAwEAAQ=="

#: Fallback shapes the fuzz corpus lacks, plus bucketed neighbours.
EXTRA_FILTERS = [
    "/pop-zone-2/$image",                 # $image-only fallback literals
    "/pop-zone-20/$image",
    "/ads-serve/$image",
    "/banner-zone/",                      # default-mask fallback literal
    "/ad-frame/",
    "/AdFrame/$match-case",               # case-sensitive literal
    "/ads\\.js/",                         # escaped literal
    "/banner[0-9]+/",                     # metacharacters: never gated
    "/k-zone/$script",                    # 'K' (Kelvin) folds onto k
    "||adzerk.net^$image",
    "||adzerk.net/ads-serve/$script,third-party",
    "@@||adzerk.net^$~script",
    "@@||example.com^$document",
    "@@||example.com^$elemhide",
    f"@@$sitekey={SITEKEY},document",
    f"@@$sitekey={SITEKEY},elemhide",
    "@@/pop-zone-2/$image,domain=example.com",
]

EXTRA_URLS = [
    "http://example.com/",
    "http://example.com/pop-zone-2/x.gif",
    "http://cdn.example/POP-ZONE-20/x.gif",
    "http://adzerk.net/ads-serve/pop-zone-2/banner12.gif",
    "http://x.example/banner-zone/ad-frame/",
    "http://x.example/AdFrame/y",
    "http://x.example/adframe/y",         # match-case literal misses
    "http://x.example/ads.js",
    "http://x.example/adsxjs",            # '.' is escaped: no match
    "http://x.example/K-zone/",      # Kelvin sign: IGNORECASE match
    "http://x.example/adſ-serve/",   # long s folds onto 's'
    "http://münchen.example/pop-zone-2/adzerk.net/",
    "http://adzerk.net/",
    "",
]

SCAN_HOSTS = ["example.com", "news.example"]


def _matching(filters, url, content_type, page_host, request_host,
              sitekey=None):
    return [flt for flt in filters
            if flt.matches(url, content_type, page_host, request_host,
                           sitekey=sitekey)]


def _ids(filters):
    return sorted(map(id, filters))


def _check(compiled, urls, sitekey=None):
    for url in urls:
        request_host = url.split("/")[2] if "//" in url else "h.example"
        untyped = list(compiled.candidates(url))
        for page_host in SCAN_HOSTS:
            for content_type in ContentType:
                args = (url, content_type, page_host, request_host)
                got = compiled.match_all(*args, sitekey=sitekey)
                assert _ids(got) == _ids(
                    _matching(compiled, *args, sitekey)), args
                ordered = _matching(untyped, *args, sitekey)
                assert got == ordered, args
                first = compiled.match_first(*args, sitekey=sitekey)
                assert first is (ordered[0] if ordered else None), args


def _compile(texts):
    filters = [parse_filter(text) for text in texts]
    assert all(isinstance(flt, RequestFilter) for flt in filters)
    return CompiledFilterIndex.compile(FilterIndex(filters))


class TestTypedProbeAgainstLinearScan:
    def test_extra_cases_every_content_type(self):
        compiled = _compile(EXTRA_FILTERS)
        _check(compiled, EXTRA_URLS)
        _check(compiled, EXTRA_URLS, sitekey=SITEKEY)

    def test_fuzz_corpus_every_content_type(self):
        rng = random.Random(FUZZ_SEED)
        for filters, urls in _build_corpus(FUZZ_SEED, 12, 40):
            extra = [parse_filter(text)
                     for text in rng.sample(EXTRA_FILTERS, 6)]
            compiled = CompiledFilterIndex.compile(
                FilterIndex(filters + extra))
            _check(compiled, urls + rng.sample(EXTRA_URLS, 4))

    def test_composite_mask_takes_untyped_sequence(self):
        compiled = _compile(EXTRA_FILTERS)
        composite = ContentType.IMAGE | ContentType.SCRIPT
        for url in EXTRA_URLS:
            assert (list(compiled.candidates(url, composite))
                    == list(compiled.candidates(url)))
        args = ("http://adzerk.net/ads-serve/", composite, "news.example",
                "adzerk.net")
        got = compiled.match_all(*args)
        assert len(got) > 1
        assert _ids(got) == _ids(_matching(compiled, *args))

    @pytest.mark.parametrize("url,kept", [
        ("http://x.example/pop-zone-2/", ["/pop-zone-2/$image"]),
        ("http://x.example/POP-ZONE-20/",
         ["/pop-zone-2/$image", "/pop-zone-20/$image"]),
        ("http://x.example/nothing/", []),
        # Non-ASCII URLs skip the gate: the whole typed fallback.
        ("http://x.example/ü", ["/pop-zone-2/$image",
                                "/pop-zone-20/$image"]),
    ])
    def test_literal_gate_keeps_exactly_the_present_needles(self, url,
                                                            kept):
        compiled = _compile(["/pop-zone-2/$image", "/pop-zone-20/$image",
                             "/ad-frame/$script"])
        assert ([flt.text for flt in
                 compiled.candidates(url, ContentType.IMAGE)] == kept)

    def test_typed_sequence_is_ordered_subsequence(self):
        compiled = _compile(EXTRA_FILTERS)
        for url in EXTRA_URLS:
            untyped = list(compiled.candidates(url))
            for content_type in ContentType:
                typed = iter(untyped)
                assert all(flt in typed for flt in
                           compiled.candidates(url, content_type)), url


class TestSurveyWork:
    def test_candidates_per_probe_stay_small(self, history):
        config = SurveyConfig(top_n=60, stratum_size=15)
        with observe() as (registry, _):
            run_survey(history, config)
        flat = registry.flat()
        probes = flat["filters.index.probes"]
        yielded = flat["filters.index.candidates_yielded"]
        assert probes > 1000
        assert yielded / probes <= 16, (yielded, probes)
