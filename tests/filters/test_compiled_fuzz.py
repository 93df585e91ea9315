"""Seeded differential fuzz: compiled index vs legacy, 10k+ pairs.

Every (filter list, URL) pair asserts the three contracts the compiled
index must keep:

* **completeness** — the compiled candidate set is a superset of the
  filters that actually match (never-filter-out-a-match);
* **byte-identical ordering** — the compiled candidate *sequence*
  equals the legacy index's, element for element;
* **verdict parity** — ``match_first`` returns the identical filter
  object and ``match_all`` the identical list.

Everything is derived from one fixed seed, so a failure reproduces
exactly; bump ``FUZZ_SEED`` locally to explore a different corpus.
"""

import random

from repro.filters.compiled.index import CompiledFilterIndex
from repro.filters.index import FilterIndex
from repro.filters.options import ContentType
from repro.filters.parser import RequestFilter, parse_filter

FUZZ_SEED = 20150


HOST_WORDS = ["ads", "adserv", "track", "stats", "pixel", "cdn",
              "static", "media", "click", "banner", "pop", "sync",
              "doubleclick", "adzerk", "gstatic", "metrics", "beacon"]
TLDS = ["com", "net", "org", "example", "co.uk"]
PATH_WORDS = ["banner", "ads", "img", "js", "frame", "track", "a", "xy",
              "advert", "%2fads", "1x1", "320x50", "ADS", "Pixel"]
OPTIONS = ["", "$third-party", "$script", "$image,third-party",
           "$domain=example.com", "$~image"]


def _filter_text(rng: random.Random) -> str:
    shape = rng.randrange(6)
    host = (rng.choice(HOST_WORDS) + rng.choice(["", "-", "."])
            + rng.choice(HOST_WORDS) + "." + rng.choice(TLDS))
    path = "/".join(rng.choice(PATH_WORDS)
                    for _ in range(rng.randrange(1, 3)))
    prefix = "@@" if rng.random() < 0.25 else ""
    if shape == 0:
        return f"{prefix}||{host}^{rng.choice(OPTIONS)}"
    if shape == 1:
        return f"{prefix}||{host}/{path}{rng.choice(OPTIONS)}"
    if shape == 2:
        return f"{prefix}{path}^{rng.choice(OPTIONS)}"
    if shape == 3:                       # wildcards shorten keywords
        return f"{prefix}||{host}/*/{path}"
    if shape == 4:                       # raw regex: fallback bucket
        return f"{prefix}/{rng.choice(PATH_WORDS)}[0-9]+/"
    return f"{prefix}|http://{host}/{path}|"


def _url(rng: random.Random) -> str:
    host = (rng.choice(HOST_WORDS) + rng.choice(["", "-x"])
            + "." + rng.choice(TLDS))
    segments = [rng.choice(PATH_WORDS + HOST_WORDS)
                for _ in range(rng.randrange(0, 4))]
    url = f"http://{host}/" + "/".join(segments)
    roll = rng.random()
    if roll < 0.05:
        url = url.upper()
    elif roll < 0.08:
        url += "?q=m%C3%BCnchenü"     # non-ASCII detour
    elif roll < 0.10:
        url += "?" + rng.choice(HOST_WORDS) + "=" + rng.choice(HOST_WORDS)
    return url


def _build_corpus(seed: int, lists: int, urls_per_list: int):
    rng = random.Random(seed)
    for _ in range(lists):
        texts = {_filter_text(rng)
                 for _ in range(rng.randrange(4, 40))}
        filters = [flt for flt in map(parse_filter, sorted(texts))
                   if isinstance(flt, RequestFilter)]
        if not filters:
            continue
        rng.shuffle(filters)
        urls = [_url(rng) for _ in range(urls_per_list)]
        yield filters, urls


class TestDifferentialFuzz:
    LISTS = 60
    URLS_PER_LIST = 180      # 60 x 180 >= 10,800 (filter list, URL) pairs

    def test_compiled_equals_legacy_on_10k_pairs(self):
        pairs = 0
        mismatches = []
        for filters, urls in _build_corpus(FUZZ_SEED, self.LISTS,
                                           self.URLS_PER_LIST):
            legacy = FilterIndex(filters)
            compiled = CompiledFilterIndex.compile(legacy)
            for url in urls:
                pairs += 1
                legacy_seq = list(legacy.candidates(url))
                compiled_seq = list(compiled.candidates(url))
                if compiled_seq != legacy_seq:
                    mismatches.append(("sequence", url,
                                       [f.text for f in legacy_seq],
                                       [f.text for f in compiled_seq]))
                    continue
                host = url.split("/")[2].lower()
                matching = [flt for flt in filters
                            if flt.matches(url, ContentType.IMAGE,
                                           "page.example", host)]
                candidate_ids = {id(flt) for flt in compiled_seq}
                if not all(id(flt) in candidate_ids for flt in matching):
                    mismatches.append(("completeness", url,
                                       [f.text for f in matching], None))
                if (legacy.match_first(url, ContentType.IMAGE,
                                       "page.example", host)
                        is not compiled.match_first(url, ContentType.IMAGE,
                                                    "page.example", host)):
                    mismatches.append(("match_first", url, None, None))
                if (legacy.match_all(url, ContentType.SCRIPT,
                                     "page.example", host)
                        != compiled.match_all(url, ContentType.SCRIPT,
                                              "page.example", host)):
                    mismatches.append(("match_all", url, None, None))
        assert pairs >= 10_000, f"corpus too small: {pairs} pairs"
        assert not mismatches, mismatches[:5]

    def test_corpus_is_deterministic(self):
        def digest():
            return [
                ([f.text for f in filters], urls[:3])
                for filters, urls in _build_corpus(FUZZ_SEED, 3, 5)
            ]
        assert digest() == digest()


class TestArtifactFuzz:
    """Round-trip a slice of the fuzz corpus through the artifact."""

    def test_round_trip_preserves_candidates(self):
        from repro.filters.compiled import parse_artifact, serialize_artifact
        from repro.filters.engine import EngineSnapshot
        from repro.filters.filterlist import FilterList

        rng = random.Random(FUZZ_SEED + 1)
        for filters, urls in _build_corpus(FUZZ_SEED + 1, 8, 40):
            flist = FilterList(name="fuzz", entries=list(filters))
            snapshot = EngineSnapshot.build([flist])
            blob = serialize_artifact(snapshot, fingerprint="ab" * 4)
            rebuilt = parse_artifact(blob).build_snapshot([flist])
            for url in urls:
                for name in ("blocking", "exceptions"):
                    # Untyped, and typed: the artifact-load path builds
                    # the same content-type partitions as compile().
                    for content_type in (None, ContentType.IMAGE,
                                         ContentType.SCRIPT):
                        assert (list(getattr(rebuilt, name)
                                     .candidates(url, content_type))
                                == list(getattr(snapshot, name)
                                        .candidates(url, content_type))), \
                            (url, name, content_type)
            # One random bit flip in the body must never go unnoticed.
            corrupt = bytearray(blob)
            corrupt[rng.randrange(len(corrupt))] ^= 0x40
            try:
                parse_artifact(bytes(corrupt))
            except Exception as exc:
                assert type(exc).__name__ == "CompiledArtifactError"
            else:  # the flip landed in the CRC'd-but-unused padding? no:
                raise AssertionError("corrupted artifact was accepted")
