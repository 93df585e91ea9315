"""Benchmark: the survey's engine hot path.

One question, answered in a JSON artifact
(``BENCH_parallel_survey.json`` at the repo root): **what did the
engine hot-path pass buy?**  We time the one-worker survey with the
optimisations live, then again with each one neutralised — eager
pattern compilation through the uncached ``compile_pattern``,
per-insertion keyword re-extraction, per-probe URL re-tokenisation, and
a cleared privilege memo — which is the code the pass replaced.

How the survey parallelises is measured by
``benchmarks/bench_steal_scheduler.py``.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_survey.py -s

Set ``BENCH_QUICK=1`` (the CI smoke job does) for a scaled-down run
that still emits the JSON but skips the speedup assertion, which
shared CI runners cannot honour reliably.
"""

from __future__ import annotations

import json
import os
import time

from repro.history.generator import generate_history
from repro.measurement.survey import SurveyConfig, run_survey
from repro.parallel.caches import reset_process_caches

from benchmarks.conftest import BENCH_QUICK, print_block

_KEY_BITS = 128

#: The Figure 6 workload shape: the top-group crawl dominated by the
#: 30%-fault retry/backoff mix the resilience layer absorbs.
_CONFIG = SurveyConfig(
    top_n=60 if BENCH_QUICK else 600,
    stratum_size=15 if BENCH_QUICK else 150,
    fault_rate=0.3,
    fault_seed=7,
)

# Quick mode writes its own artifact: its scaled-down workload is a
# different benchmark from the full run.
_RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_parallel_survey_quick.json" if BENCH_QUICK
    else "BENCH_parallel_survey.json")


def _timed_survey(history) -> float:
    reset_process_caches()
    start = time.perf_counter()
    run_survey(history, _CONFIG)
    return time.perf_counter() - start


def _legacy_engine_emulation():
    """Monkeypatch the hot-path optimisations back out; return an undo.

    Restores the code shapes the optimisation passes replaced: every
    pattern compiles its regex eagerly through the uncached
    ``compile_pattern``, keyword candidates are re-extracted per
    ``FilterIndex.add``, every compiled-index probe re-tokenises the
    URL with the regex tokeniser and yields filter-by-filter through a
    generator (the pre-compiled-index shape), and the
    document-privilege memo never retains an entry.
    """
    from repro.filters import engine as engine_mod
    from repro.filters import index as index_mod
    from repro.filters import parser as parser_mod
    from repro.filters import pattern as pattern_mod
    from repro.filters.compiled.index import CompiledFilterIndex

    saved = (parser_mod.compile_pattern, parser_mod.keyword_candidates,
             CompiledFilterIndex.candidates,
             engine_mod.AdblockEngine.document_privileges)

    def eager_uncached_compile(source, match_case=False):
        compiled = pattern_mod.compile_pattern.__wrapped__(source, match_case)
        compiled.regex  # force the eager re.compile the old code paid
        return compiled

    def legacy_candidates(self, url):
        # The pre-compiled probe: regex tokenisation per call, dedup
        # via a per-probe seen-set, one generator resumption per
        # candidate filter.
        seen = set()
        raw = self._raw
        for word in index_mod._URL_KEYWORD_RE.findall(url.lower()):
            if word in seen:
                continue
            seen.add(word)
            bucket = raw.get(word.encode("ascii"))
            if bucket is not None:
                yield from bucket
        yield from self._fallback

    privileged = engine_mod.AdblockEngine.document_privileges

    def uncached_privileges(self, *args, **kwargs):
        self._privilege_cache.clear()
        return privileged(self, *args, **kwargs)

    parser_mod.compile_pattern = eager_uncached_compile
    parser_mod.keyword_candidates = pattern_mod.keyword_candidates.__wrapped__
    CompiledFilterIndex.candidates = legacy_candidates
    engine_mod.AdblockEngine.document_privileges = uncached_privileges

    def undo():
        (parser_mod.compile_pattern, parser_mod.keyword_candidates,
         CompiledFilterIndex.candidates,
         engine_mod.AdblockEngine.document_privileges) = saved

    return undo


def measure_engine(history, repeats: int = 2) -> dict:
    """Serial survey time, optimised vs legacy-emulated engine."""
    def best_of(fn) -> float:
        return min(fn() for _ in range(repeats))

    def optimised() -> float:
        return _timed_survey(history)

    _timed_survey(history)  # warm site profiles etc. for both modes
    optimised_s = best_of(optimised)
    undo = _legacy_engine_emulation()
    try:
        legacy_s = best_of(optimised)
    finally:
        undo()
    return {
        "optimised_s": round(optimised_s, 4),
        "legacy_s": round(legacy_s, 4),
        "speedup": round(legacy_s / optimised_s, 3) if optimised_s else 0.0,
    }


def test_parallel_survey_benchmark():
    history = generate_history(seed=2015, key_bits=_KEY_BITS)
    engine = measure_engine(history)
    payload = {
        "benchmark": "parallel_survey",
        "quick": BENCH_QUICK,
        "config": {
            "top_n": _CONFIG.top_n,
            "stratum_size": _CONFIG.stratum_size,
            "fault_rate": _CONFIG.fault_rate,
            "fault_seed": _CONFIG.fault_seed,
        },
        "engine": engine,
    }
    with open(_RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print_block(
        f"engine hot path: optimised {engine['optimised_s']:.2f}s vs "
        f"legacy {engine['legacy_s']:.2f}s = {engine['speedup']}x\n"
        f"results -> {_RESULT_PATH}")

    if not BENCH_QUICK:
        assert engine["speedup"] >= 1.2, (
            f"engine hot-path speedup {engine['speedup']}x below the "
            f"1.2x target")
