"""The repository benchmark: workloads ``survey-serial`` and ``serve-ext``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload survey-serial --seed 1 \\
        --seconds 40 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it makes the traced run and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  The
report goes to stdout, stamped with the conditions it was measured
under; the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import proc  # noqa: E402

WORKLOADS = ("survey-serial", "serve-ext")

#: Per-layer metrics of layers a workload never runs; reported as 0.
_SURVEY_ONLY = (
    "measurement.samples_s", "web.page_s", "web.visit_s", "web.attempts",
    "web.retries", "web.failed", "parallel.run_s", "parallel.parent_cpu_s",
    "parallel.children_cpu_s", "parallel.busy_frac", "state.journal_bytes",
    "state.journal_bytes_per_unit", "measurement.stats_s",
    "reporting.render_s")


def _not_run(workload: str, name: str) -> bool:
    if workload == "serve-ext":
        return name in _SURVEY_ONLY
    return name.startswith("serve.")


def _spec() -> dict:
    return json.loads((proc.ROOT / "BENCHMARK.json").read_text())


def _commit() -> str:
    """The checkout's git commit, or a digest of its sources."""
    head = proc.ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = proc.ROOT / ".git" / ref[5:]
            if target.is_file():
                return target.read_text().strip()[:12]
        else:
            return ref[:12]
    digest = hashlib.sha256()
    for path in sorted(proc.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(proc.SRC)).encode())
        digest.update(path.read_bytes())
    return f"no git metadata; src sha256 {digest.hexdigest()[:12]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    proc.require_program()
    spec = _spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # Imported after require_program(): these reach into ``repro``.
    import serve
    import survey

    try:
        module = serve if args.workload == "serve-ext" else survey
        run = module.trace if args.trace else module.measure
        outcome = run(args.seed, args.seconds)
    finally:
        shutil.rmtree(proc.WORK, ignore_errors=True)
        try:
            proc.WORK.parent.rmdir()
        except OSError:
            pass                        # another run's files are there

    for m in wanted:
        if args.trace and _not_run(args.workload, m["name"]):
            outcome.metrics.setdefault(m["name"], 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"perfbench: workload produced no {missing}", file=sys.stderr)
        return 3
    overhead = outcome.metrics.get("trace.overhead_frac")
    print(f"== {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'} ==")
    print(f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"commit={_commit()} seed={args.seed} runs={outcome.runs}")
    print(f"input: {outcome.input_size}")
    print("trace.overhead_frac="
          + (f"{overhead:.4f}" if overhead is not None
             else "n/a (untraced run; see --trace 1)"))
    for line in outcome.lines:
        print(line)
    metrics = {}
    for m in wanted:
        value = outcome.metrics[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']:<30} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
