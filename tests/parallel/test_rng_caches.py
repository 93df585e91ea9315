"""Unit tests for seed derivation and the process-cache registry."""

import multiprocessing
import random

import pytest

from repro.parallel.caches import (
    process_cache_stats,
    registered_caches,
    reset_process_caches,
)
from repro.parallel.rng import derive_rng, derive_seed


def _in_forked_child(fn):
    """Run ``fn()`` in a forked child process and return its result."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=lambda: sender.send(fn()))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "forked child sent no result"
        return receiver.recv()
    finally:
        receiver.close()
        child.join(10)
        assert not child.is_alive()


class TestDeriveSeed:
    def test_deterministic_across_calls(self):
        assert derive_seed(7, "example.org", 3) == \
            derive_seed(7, "example.org", 3)

    def test_part_boundaries_matter(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_every_part_contributes(self):
        base = derive_seed(7, "jitter", "example.org", 5)
        assert base != derive_seed(8, "jitter", "example.org", 5)
        assert base != derive_seed(7, "retry", "example.org", 5)
        assert base != derive_seed(7, "jitter", "example.net", 5)
        assert base != derive_seed(7, "jitter", "example.org", 6)

    def test_seed_is_128_bit(self):
        assert 0 <= derive_seed(1, "x") < 2 ** 128

    def test_rng_streams_reproduce(self):
        a = derive_rng(7, "jitter", "example.org", 1)
        b = derive_rng(7, "jitter", "example.org", 1)
        assert [a.random() for _ in range(10)] == \
            [b.random() for _ in range(10)]

    def test_rng_is_plain_random(self):
        assert isinstance(derive_rng(1), random.Random)

    def test_identical_in_forked_worker(self):
        """The whole point: any process derives the same stream."""
        parent = derive_rng(7, "jitter", "example.org", 1).random()
        child = _in_forked_child(
            lambda: derive_rng(7, "jitter", "example.org", 1).random())
        assert child == parent


def _url_cache():
    from repro.web.url import public_suffix
    return public_suffix


class TestProcessCaches:
    def test_hot_path_caches_are_registered(self):
        registered = {f"{c.__module__}.{c.__qualname__}"
                      for c in registered_caches()}
        for expected in ("repro.web.url.public_suffix",
                         "repro.web.url.registered_domain",
                         "repro.filters.pattern.compile_pattern",
                         "repro.filters.pattern.keyword_candidates"):
            assert expected in registered

    def test_url_tokeniser_is_not_a_process_cache(self):
        # The compiled filter index replaced the lru_cache-backed URL
        # tokeniser: nothing left to re-warm (or clear) after fork.
        import repro.filters.index  # ensure the module has registered
        registered = {f"{c.__module__}.{c.__qualname__}"
                      for c in registered_caches()}
        assert "repro.filters.index._url_tokens" not in registered
        assert not hasattr(repro.filters.index._url_tokens, "cache_clear")

    def test_reset_clears_registered_caches(self):
        cache = _url_cache()
        cache("ads.example.co.uk")
        assert cache.cache_info().currsize > 0
        reset_process_caches()
        assert cache.cache_info().currsize == 0

    def test_stats_reflect_this_process(self):
        cache = _url_cache()
        reset_process_caches()
        cache("ads.example.co.uk")
        cache("ads.example.co.uk")
        stats = process_cache_stats()["repro.web.url.public_suffix"]
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        assert stats["currsize"] >= 1
        assert stats["maxsize"] == 65536

    def test_forked_worker_starts_cold(self):
        cache = _url_cache()
        cache("warm.example.co.uk")  # warm the parent cache
        assert cache.cache_info().currsize > 0

        def sizes():
            before = _url_cache().cache_info().currsize
            _url_cache()("child-only.example.co.uk")
            return before, _url_cache().cache_info().currsize

        before, after = _in_forked_child(sizes)
        assert before == 0        # fork guard cleared the inherited cache
        assert after > 0          # and the child cache works normally
        assert cache.cache_info().currsize > 0  # parent cache untouched
