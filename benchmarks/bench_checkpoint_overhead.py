"""Micro-benchmark: overhead of journaled (checkpointed) survey runs.

The run journal records every crawled target (its outcome projection)
with a flushed, checksummed append, so a
checkpointed survey must stay close to free — crash safety is only
worth threading through the pipeline if enabling it unconditionally is
cheap.  This benchmark runs the same survey plain and with a
``Checkpoint`` and asserts the journaled path costs less than 10%
extra wall-clock.  It then kills a checkpointed run halfway through
(via the seeded crash injector) and times the resumed completion,
reporting how much of the run a crash no longer costs.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint_overhead.py -s

A tiny smoke invocation is wired into the tier-1 suite
(``tests/integration/test_crash_resume.py``), so regressions that
break the harness itself surface on every test run.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.history.generator import generate_history
from repro.measurement.survey import SurveyConfig, run_survey
from repro.state import Checkpoint
from repro.state.crashpoints import CrashInjector, SimulatedCrash, crashing

#: Small sitekeys: key strength is irrelevant to journaling cost.
_KEY_BITS = 128

_CONFIG = SurveyConfig(top_n=200, stratum_size=50, fault_rate=0.2,
                       fault_seed=7)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def compare_overhead(config: SurveyConfig = _CONFIG,
                     repeats: int = 3) -> dict:
    """Time the survey plain and checkpointed; return timings and ratio."""
    history = generate_history(seed=2015, key_bits=_KEY_BITS)

    def plain():
        run_survey(history, config)

    def journaled():
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = Checkpoint.start(os.path.join(tmp, "run.ckpt"))
            try:
                run_survey(history, config, checkpoint=checkpoint)
            finally:
                checkpoint.close()

    plain()  # warm caches (site profiles, engine construction)
    plain_s = _best_of(plain, repeats)
    journaled_s = _best_of(journaled, repeats)
    return {
        "targets": config.top_n + 3 * config.stratum_size,
        "plain_s": plain_s,
        "journaled_s": journaled_s,
        "ratio": journaled_s / plain_s if plain_s else float("inf"),
    }


def resume_savings(config: SurveyConfig = _CONFIG) -> dict:
    """Crash a checkpointed run at ~50% and time the resumed half.

    Returns the full-run time, the resumed-completion time, and the
    fraction of a full run that the resume saved.
    """
    history = generate_history(seed=2015, key_bits=_KEY_BITS)

    with tempfile.TemporaryDirectory() as tmp:
        # A complete run, counted, to find the halfway append.
        path = os.path.join(tmp, "full.ckpt")
        checkpoint = Checkpoint.start(path)
        start = time.perf_counter()
        try:
            run_survey(history, config, checkpoint=checkpoint)
        finally:
            checkpoint.close()
        full_s = time.perf_counter() - start
        with open(path, "rb") as handle:
            appends = sum(1 for _ in handle) - 1  # minus the header

        # Crash a fresh run at the midpoint, then resume it.
        path = os.path.join(tmp, "crashed.ckpt")
        checkpoint = Checkpoint.start(path)
        try:
            with crashing(CrashInjector(at_step=appends // 2)):
                run_survey(history, config, checkpoint=checkpoint)
            raise AssertionError("crash injector never fired")
        except SimulatedCrash:
            pass
        finally:
            checkpoint.close()

        checkpoint = Checkpoint.resume(path)
        assert checkpoint.resumed
        start = time.perf_counter()
        try:
            run_survey(history, config, checkpoint=checkpoint)
        finally:
            checkpoint.close()
        resume_s = time.perf_counter() - start

    return {
        "appends": appends,
        "full_s": full_s,
        "resume_s": resume_s,
        "saved": 1.0 - resume_s / full_s if full_s else 0.0,
    }


def test_checkpoint_overhead_under_10_percent():
    result = compare_overhead(repeats=3)
    print(f"\nplain: {result['plain_s'] * 1e3:.1f} ms, "
          f"journaled: {result['journaled_s'] * 1e3:.1f} ms, "
          f"overhead: {(result['ratio'] - 1) * 100:+.1f}% "
          f"({result['targets']} targets x 2 configs)")
    assert result["ratio"] < 1.10, (
        f"journaled survey overhead {result['ratio']:.3f}x exceeds 1.10x")


def test_resume_after_midpoint_crash_saves_work():
    result = resume_savings()
    print(f"\nfull run: {result['full_s'] * 1e3:.1f} ms, "
          f"resume after crash at append {result['appends'] // 2}"
          f"/{result['appends']}: {result['resume_s'] * 1e3:.1f} ms "
          f"({result['saved'] * 100:.0f}% of the run saved)")
    # Replaying journal records must beat re-crawling: a crash at ~50%
    # should cost clearly less than a full rerun.
    assert result["resume_s"] < result["full_s"] * 0.8, (
        f"resume took {result['resume_s']:.3f}s vs full "
        f"{result['full_s']:.3f}s — journal replay saved too little")
