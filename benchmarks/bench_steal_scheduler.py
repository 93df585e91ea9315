"""Benchmark: the supervised work-stealing scheduler.

Three questions, answered in one JSON artifact
(``BENCH_steal_scheduler.json`` at the repo root):

1. **How well does stealing parallelise?**  The same survey runs at
   1/2/4/8 workers; real wall-clock is recorded per count, and the
   assertion rides on the *simulated makespan* speedup from
   :func:`repro.parallel.scheduler.simulate_steal_makespan` — a pure
   event model of leases on N free cores, which is what wall-clock
   converges to on an unloaded machine.  The full-scale 8-worker
   target is 7x.

2. **What does losing a worker cost?**  The makespan model kills 1 of
   8 workers at the no-kill midpoint (lease requeued, no replacement —
   the pessimistic case); the recovered makespan must stay within 1.3x
   of the undisturbed one.

3. **Does a kill schedule change results?**  A real four-worker run
   under an injected kill schedule is diffed byte-for-byte against the
   one-worker reference — the fault-tolerance contract is that it
   never does.

A lease-size sweep backs the trade-off table in
``docs/PERFORMANCE.md``.  Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_steal_scheduler.py -s

Set ``BENCH_QUICK=1`` (the CI smoke job does) for a scaled-down run
that still emits the JSON and keeps every assertion — the makespan
model is deterministic, so shared-runner weather cannot break it.
"""

from __future__ import annotations

import json
import os
import time

from repro.history.generator import generate_history
from repro.measurement.survey import SurveyConfig, run_survey
from repro.parallel.caches import reset_process_caches
from repro.parallel.scheduler import simulate_steal_makespan
from repro.parallel.supervisor import WorkerCrashInjector
from repro.web.crawlstate import snapshot_outcome

from benchmarks.conftest import BENCH_QUICK, print_block

_KEY_BITS = 128

#: Same workload shape as bench_parallel_survey: the Figure 6 crawl
#: under a 30% injected-fault retry/backoff mix.
_CONFIG = dict(
    top_n=60 if BENCH_QUICK else 600,
    stratum_size=15 if BENCH_QUICK else 150,
    fault_rate=0.3,
    fault_seed=7,
)

_LEASE_SIZE = 4
_WORKER_COUNTS = (1, 2, 4, 8)
_LEASE_SWEEP = (1, 2, 4, 8, 16)

_RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_steal_scheduler_quick.json" if BENCH_QUICK
    else "BENCH_steal_scheduler.json")


def _survey(history, *, workers=1, injector=None):
    reset_process_caches()
    start = time.perf_counter()
    result = run_survey(history, SurveyConfig(
        **_CONFIG, workers=workers, lease_size=_LEASE_SIZE,
        steal_crash_injector=injector))
    return result, time.perf_counter() - start


def _unit_latencies(result) -> list[float]:
    """Per-unit simulated latencies, in global unit order."""
    latencies = []
    for outcomes in (result.outcomes, result.outcomes_easylist_only):
        for group in outcomes.values():
            latencies.extend(outcome.latency_ms for outcome in group)
    return latencies


def _canonical(result) -> str:
    return json.dumps(
        {group: [snapshot_outcome(o) for o in outcomes]
         for group, outcomes in result.outcomes.items()},
        sort_keys=True)


def measure_steal(history) -> tuple[dict, dict]:
    """(steal metrics, fault-tolerance metrics) for the JSON artifact."""
    wall: dict[str, float] = {}
    latencies: list[float] = []
    reference = ""
    for workers in _WORKER_COUNTS:
        result, elapsed = _survey(history, workers=workers)
        wall[str(workers)] = round(elapsed, 4)
        if workers == 1:
            latencies = _unit_latencies(result)
            reference = _canonical(result)

    total = sum(latencies)

    def speedup(makespan: float) -> float:
        return total / makespan if makespan else float("inf")

    steal_speedup = {
        str(workers): round(speedup(simulate_steal_makespan(
            latencies, workers, _LEASE_SIZE)), 3)
        for workers in _WORKER_COUNTS}
    sweep = {
        str(lease_size): round(speedup(simulate_steal_makespan(
            latencies, 8, lease_size)), 3)
        for lease_size in _LEASE_SWEEP}

    no_kill = simulate_steal_makespan(latencies, 8, _LEASE_SIZE)
    killed = simulate_steal_makespan(latencies, 8, _LEASE_SIZE,
                                     kill=(0, no_kill / 2.0))

    # The contract run: a real steal survey under a deterministic kill
    # schedule must be byte-identical to the undisturbed reference.
    injector = WorkerCrashInjector(kill_after={0: 2, 1: 5})
    survived, kill_wall = _survey(history, workers=4, injector=injector)
    assert _canonical(survived) == reference, \
        "kill schedule changed steal results"

    steal = {
        "units": len(latencies),
        "lease_size": _LEASE_SIZE,
        "wall_clock_s": wall,
        "simulated_latency_total_ms": round(total, 3),
        "simulated_speedup": steal_speedup,
        "lease_size_speedup_w8": sweep,
    }
    faults = {
        "kill_recovery_ratio": round(killed / no_kill, 4) if no_kill
        else 1.0,
        "killed_run_wall_clock_s": round(kill_wall, 4),
    }
    return steal, faults


def test_steal_scheduler_benchmark():
    history = generate_history(seed=2015, key_bits=_KEY_BITS)
    steal, faults = measure_steal(history)
    payload = {
        "benchmark": "steal_scheduler",
        "quick": BENCH_QUICK,
        "config": dict(_CONFIG),
        "steal": steal,
        "faults": faults,
    }
    with open(_RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    sim = steal["simulated_speedup"]
    print_block(
        f"steal scheduler ({steal['units']} units, lease={_LEASE_SIZE}): "
        "wall-clock "
        + ", ".join(f"{w}w={steal['wall_clock_s'][w]:.2f}s"
                    for w in sorted(steal['wall_clock_s'], key=int))
        + f"\nsimulated speedup 2w={sim['2']}x 4w={sim['4']}x "
        f"8w={sim['8']}x\n"
        f"kill 1-of-8 at midpoint: {faults['kill_recovery_ratio']}x "
        f"no-kill makespan\n"
        f"results -> {_RESULT_PATH}")

    # The 7x target needs the full workload's unit count: quick mode's
    # 210 units cap the 8-worker makespan on lease granularity and the
    # single slowest unit (full-scale measures 7.59x at lease=4).
    target = 5.0 if BENCH_QUICK else 7.0
    assert sim["8"] >= target, (
        f"simulated 8-worker steal speedup {sim['8']}x below the "
        f"{target}x target")
    assert faults["kill_recovery_ratio"] <= 1.3, (
        f"kill recovery ratio {faults['kill_recovery_ratio']}x exceeds "
        f"the 1.3x budget")
