"""Run one ``repro`` CLI command with the layer wrappers installed.

Usage: ``python3 perfbench/traced.py OUT.json -- <repro arguments>``

Prints the command's output to stdout, then writes the per-layer span
totals, the counts and the in-process wall of the CLI call to
``OUT.json``.  The parent benchmark process spawns this as the traced
twin of an untraced ``python -m repro`` run.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Every module whose ``from x import f`` bindings the wrappers must see.
import repro.cli  # noqa: E402
import repro.core.study  # noqa: E402,F401
import repro.measurement.stats  # noqa: E402,F401
import repro.measurement.survey  # noqa: E402,F401
import repro.reporting.tables  # noqa: E402,F401
import repro.web.browser  # noqa: E402,F401

from layers import LayerTracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    out_path, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: traced.py OUT.json -- <repro args>")
    tracer = LayerTracer()
    install(tracer)
    buffer = io.StringIO()
    start = time.perf_counter()
    status = repro.cli.main(command, out=buffer)
    wall = time.perf_counter() - start
    sys.stdout.write(buffer.getvalue())
    sys.stdout.flush()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = tracer.snapshot()
    record.update(status=status, wall_s=wall,
                  parent_cpu_s=own.ru_utime + own.ru_stime,
                  children_cpu_s=children.ru_utime + children.ru_stime)
    Path(out_path).write_text(json.dumps(record))
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
