"""The ``survey-serial`` workload, and the pooled run its trace adds.

``survey-serial`` runs ``repro survey --fast --top 300 --stratum 75`` as
a fresh subprocess per timed run, on the classic serial path.  Its
traced run adds one pooled run of the same survey (``--workers 2
--fault-rate 0.1 --fault-seed S --checkpoint PATH``, which forks two
workers, injects crawl faults and journals every unit) for the
executor, journal and crawl-retry layers.  Each run's stdout is
compared with a reference computed once per invocation through the
*other* executor: the serial run against ``--workers 2``, the pooled
run against ``--workers 1``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import proc

TOP, STRATUM = 300, 75
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed runs per invocation, at least.  ``wall_s`` and ``cpu_s`` are
#: the fastest run's: on a shared host, interference from other tenants
#: only ever adds time, and it comes in spells that can cover half of
#: the runs of an invocation, so a median of a handful moves with it.
MIN_RUNS = 3


@dataclass
class Outcome:
    """What one workload invocation measured."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    lines: list[str] = field(default_factory=list)
    input_size: str = ""
    runs: int = 0


def _base(seed: int) -> list[str]:
    return ["survey", "--fast", "--seed", str(seed),
            "--top", str(TOP), "--stratum", str(STRATUM)]


def _faults(seed: int) -> list[str]:
    return ["--fault-rate", "0.1", "--fault-seed", str(seed)]


def command(workload: str, seed: int, journal: Path | None) -> list[str]:
    """The measured command's ``repro`` arguments."""
    if workload == "survey-serial":
        return _base(seed)
    return [*_base(seed), "--workers", "2", *_faults(seed),
            "--checkpoint", str(journal)]


def reference_command(workload: str, seed: int) -> list[str]:
    """Same result through the other executor (byte-identity contract)."""
    if workload == "survey-serial":
        return [*_base(seed), "--workers", "2"]
    return [*_base(seed), "--workers", "1", *_faults(seed)]


def _journal(tag: str) -> Path:
    path = proc.WORK / f"journal.{tag}"
    path.unlink(missing_ok=True)
    return path


def _repro(args: list[str], name: str) -> proc.Finished:
    return proc.run(proc.python("-m", "repro", *args), name=name)


def _reference(workload: str, seed: int) -> str:
    done = _repro(reference_command(workload, seed), "reference")
    if done.returncode != 0:
        raise RuntimeError(f"reference run failed ({done.returncode}): "
                           f"{done.stderr[-2000:]}")
    return done.stdout


def _setup_s(seed: int) -> list[float]:
    walls = []
    for _ in range(SETUP_REPEATS):
        done = proc.run(proc.python(str(proc.ROOT / "perfbench"
                                        / "setup_probe.py"), str(seed)),
                        name="setup")
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
        walls.append(done.wall_s)
    return walls


def measure(seed: int, seconds: float) -> Outcome:
    """Untraced serial runs: the end-to-end metrics."""
    workload = "survey-serial"
    reference = _reference(workload, seed)
    setups = _setup_s(seed)
    runs: list[proc.Finished] = []
    failed = 0
    start = time.perf_counter()
    while True:
        done = _repro(command(workload, seed, _journal("timed")), "timed")
        runs.append(done)
        if done.returncode != 0 or not checks.survey_output_ok(
                done.stdout, reference):
            failed += 1
        # Stop before a run that would end past the window.
        next_end = (time.perf_counter() - start
                    + statistics.median(r.wall_s for r in runs))
        if len(runs) >= MIN_RUNS and next_end > seconds:
            break
    walls = [r.wall_s for r in runs]
    cpus = [r.cpu_s for r in runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": min(walls),
        "cpu_s": min(cpus),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    n = len(runs)
    lines = [
        f"setup_s      {metrics['setup_s']:.4f} s   median of "
        f"{len(setups)} set-up probes {_fmt(setups)}",
        f"wall_s       {metrics['wall_s']:.4f} s   fastest of {n} runs "
        f"{_fmt(walls)}, median {statistics.median(walls):.4f}",
        f"cpu_s        {metrics['cpu_s']:.4f} s   user+sys, process and "
        f"children, fastest of {n} {_fmt(cpus)}, median "
        f"{statistics.median(cpus):.4f}",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB  max over process "
        f"and children, median of {n}",
        f"failed_frac  {failed}/{n} runs crashed or differed from the "
        f"reference",
    ]
    return Outcome(correct=failed == 0, attempted=n, failed=failed,
                   metrics=metrics, lines=lines, runs=n,
                   input_size=_input_size(reference))


def _traced(workload: str, seed: int) -> tuple[proc.Finished, dict, int]:
    """One run under ``traced.py``: the process, its layers, journal size."""
    journal = _journal("traced")
    out_json = proc.WORK / "layers.json"
    out_json.unlink(missing_ok=True)
    done = proc.run(proc.python(
        str(proc.ROOT / "perfbench" / "traced.py"), str(out_json), "--",
        *command(workload, seed, journal)), name="traced")
    layers = json.loads(out_json.read_text()) if done.returncode == 0 \
        else {}
    return done, layers, journal.stat().st_size if journal.exists() else 0


def _mean_layers(records: list[dict]) -> dict:
    """Average the traced runs' layer records, key by key."""
    def mean(key):
        maps = [r[key] for r in records]
        return {k: sum(m.get(k, 0) for m in maps) / len(maps)
                for k in set().union(*maps)}
    return {"self_s": mean("self_s"), "counts": mean("counts"),
            **{k: sum(r[k] for r in records) / len(records)
               for k in ("wall_s", "parent_cpu_s", "children_cpu_s")}}


def trace(seed: int, seconds: float) -> Outcome:
    """Untraced and traced serial runs in the order U T T U, then one
    traced pooled run: per-layer metrics.

    The mirrored order cancels a drift in machine speed from the
    overhead estimate; the layer figures are the two traced runs' mean.
    """
    workload = "survey-serial"
    reference = _reference(workload, seed)
    untraced = [_repro(command(workload, seed, _journal("untraced")),
                       "untraced")]
    traced = [_traced(workload, seed), _traced(workload, seed)]
    untraced.append(_repro(command(workload, seed, _journal("untraced")),
                           "untraced"))
    pooled_reference = _reference("survey-w2", seed)
    pooled, pooled_layers, journal_bytes = _traced("survey-w2", seed)
    checked = [(done, reference)
               for done in untraced + [done for done, _, _ in traced]]
    checked.append((pooled, pooled_reference))
    failed = sum(1 for done, expected in checked
                 if done.returncode != 0
                 or not checks.survey_output_ok(done.stdout, expected))
    for done, record, _ in [*traced, (pooled, pooled_layers, 0)]:
        if not record:
            raise RuntimeError(f"a traced run crashed: {done.stderr[-2000:]}")
    layers = _mean_layers([record for _, record, _ in traced])
    metrics = layer_metrics(layers)
    health = checks.crawl_health(pooled_reference)
    visited = health.get("visited", 0)
    metrics["web.attempts"] = health.get("attempts total", 0)
    metrics["web.retries"] = metrics["web.attempts"] - visited
    metrics["web.failed"] = health.get("failed", 0)
    metrics["state.journal_bytes"] = journal_bytes
    metrics["state.journal_bytes_per_unit"] = (journal_bytes / visited
                                               if visited else 0.0)
    metrics["parallel.run_s"] = layer_metrics(pooled_layers)[
        "parallel.run_s"]
    pooled_cpu = (pooled_layers["parent_cpu_s"]
                  + pooled_layers["children_cpu_s"])
    metrics["parallel.parent_cpu_s"] = pooled_layers["parent_cpu_s"]
    metrics["parallel.children_cpu_s"] = pooled_layers["children_cpu_s"]
    metrics["parallel.busy_frac"] = pooled_cpu / (2 * pooled_layers["wall_s"])
    traced_walls = [done.wall_s for done, _, _ in traced]
    untraced_walls = [done.wall_s for done in untraced]
    metrics["trace.overhead_frac"] = (sum(traced_walls)
                                      / sum(untraced_walls) - 1.0)
    metrics["trace.unaccounted_frac"] = (
        1.0 - sum(layers["self_s"].values()) / layers["wall_s"])
    lines = [f"process walls, in run order: untraced "
             f"{untraced_walls[0]:.3f} s, traced {_fmt(traced_walls)} s, "
             f"untraced {untraced_walls[1]:.3f} s; CLI call "
             f"{layers['wall_s']:.3f} s inside the traced process (mean)",
             f"pooled run (--workers 2 --fault-rate 0.1 --checkpoint): "
             f"process wall {pooled.wall_s:.3f} s.  The crawl runs in "
             "forked workers, whose spans the benchmark cannot read back, "
             "so parallel.* and state.* are its parent-side wrapper time, "
             "its own and its reaped workers' rusage and its journal "
             "size; web.attempts, web.retries and web.failed are its "
             "crawl health (injected faults).  Every other layer metric "
             "comes from the two traced serial runs."]
    return Outcome(correct=failed == 0, attempted=len(checked),
                   failed=failed, metrics=metrics, lines=lines,
                   runs=len(checked), input_size=_input_size(reference))


def layer_metrics(layers: dict) -> dict[str, float]:
    """Per-layer self times and counts from a traced process's record."""
    self_s = layers["self_s"]
    counts = layers["counts"]

    def s(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    probes = counts.get("index.probes", 0)
    scanned = counts.get("index.scanned", 0)
    return {
        "history.generate_s": s("history.generate"),
        "filters.parse_s": s("filters.parse"),
        "filters.parse_lines": counts.get("filters.parse_lines", 0),
        "engine.freeze_s": s("engine.subscribe", "engine.freeze"),
        "measurement.samples_s": s("measurement.samples"),
        "web.page_s": s("web.page"),
        "web.visit_s": s("web.visit"),
        "engine.privileges_s": s("engine.privileges"),
        "engine.check_request_s": s("engine.check_request"),
        "engine.elemhide_s": s("engine.elemhide"),
        "index.candidates_s": s("index.candidates"),
        "index.match_loop_s": s("index.match_loop"),
        "index.probes": probes,
        "index.scans_per_probe": scanned / probes if probes else 0.0,
        "index.hit_ratio": (counts.get("index.matched", 0) / scanned
                            if scanned else 0.0),
        "parallel.run_s": s("parallel.run"),
        "measurement.stats_s": s("measurement.stats"),
        "reporting.render_s": s("reporting.render"),
    }


def _input_size(reference: str) -> str:
    visited = checks.crawl_health(reference).get("visited", 0)
    return (f"--top {TOP} --stratum {STRATUM}: {visited} visits over two "
            f"engine configurations")


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"
