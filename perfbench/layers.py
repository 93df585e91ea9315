"""Per-layer spans recorded from outside the program.

The traced run never edits the program: :func:`install` replaces the
public functions and methods that bound each layer (module attributes
and class attributes of ``repro.*``) with timing wrappers owned by a
:class:`LayerTracer`, and :func:`uninstall` puts the originals back.

A wrapper opens a span when the call enters and closes it when the call
returns.  A layer's *self time* is its spans' duration minus the part
covered by spans nested inside them, so the self times of all layers
partition the time covered by any span: their sum over the traced wall
is the share of the run the layers explain.

The tracer is single-threaded by design (the survey and the in-process
protocol replay both run on one thread).  Spans opened in a forked
child process are not recorded: the wrapper sees a foreign pid and
calls straight through, because the parent could never read them back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

#: (module, attribute path, layer) for every wrapped entry point.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("repro.history.generator", "generate_history", "history.generate"),
    ("repro.filters.parser", "parse_filter", "filters.parse"),
    ("repro.filters.filterlist", "parse_filter_list", "filters.parse"),
    ("repro.filters.engine", "AdblockEngine.subscribe", "engine.subscribe"),
    ("repro.filters.engine", "AdblockEngine.freeze", "engine.freeze"),
    ("repro.measurement.samples", "build_samples", "measurement.samples"),
    ("repro.web.sites", "profile_for_domain", "web.page"),
    ("repro.web.sites", "build_page", "web.page"),
    ("repro.web.crawler", "Crawler.visit_target", "web.visit"),
    ("repro.filters.engine", "AdblockEngine.document_privileges",
     "engine.privileges"),
    ("repro.filters.engine", "AdblockEngine.check_request",
     "engine.check_request"),
    ("repro.filters.engine", "AdblockEngine.hidden_elements",
     "engine.elemhide"),
    ("repro.filters.engine", "AdblockEngine.elemhide_stylesheet",
     "engine.elemhide"),
    ("repro.filters.compiled.index", "CompiledFilterIndex.candidates",
     "index.candidates"),
    ("repro.filters.compiled.index", "CompiledFilterIndex.match_all",
     "index.match_loop"),
    ("repro.filters.compiled.index", "CompiledFilterIndex.match_first",
     "index.match_loop"),
    ("repro.parallel.survey", "run_sharded_survey", "parallel.run"),
    ("repro.parallel.scheduler", "run_stealing_survey", "parallel.run"),
    ("repro.measurement.stats", "section51_headline", "measurement.stats"),
    ("repro.measurement.stats", "table4_top_filters", "measurement.stats"),
    ("repro.web.crawler", "crawl_health", "measurement.stats"),
    ("repro.reporting.tables", "render_table", "reporting.render"),
    ("repro.reporting.tables", "render_crawl_health", "reporting.render"),
)


def _count_line(tracer: "LayerTracer", args, result) -> None:
    tracer.counts["filters.parse_lines"] += 1


def _count_probe(tracer: "LayerTracer", args, result) -> None:
    tracer.counts["index.probes"] += 1
    tracer.counts["index.scanned"] += len(result)


def _count_matches(tracer: "LayerTracer", args, result) -> None:
    if isinstance(result, list):               # match_all
        tracer.counts["index.matched"] += len(result)
    elif result is not None:                   # match_first
        tracer.counts["index.matched"] += 1


#: Counting hooks, run after the span closes, keyed by attribute path.
_HOOKS: dict[str, Callable] = {
    "parse_filter": _count_line,
    "CompiledFilterIndex.candidates": _count_probe,
    "CompiledFilterIndex.match_all": _count_matches,
    "CompiledFilterIndex.match_first": _count_matches,
}


class LayerTracer:
    """Span accounting for wrapped calls: self, total, calls, counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._owner = os.getpid()
        # One frame per open span: [layer, time covered by its children].
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Inclusive time of each layer's spans per enclosing layer.
        self.nested_s: dict[tuple[str, str], float] = defaultdict(float)

    def wrap(self, layer: str, fn: Callable,
             after: Callable | None = None) -> Callable:
        """``fn`` with a span around every call made in this process."""
        clock = self._clock
        stack = self._stack
        owner = self._owner

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != owner:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.total_s[layer] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    self.nested_s[(parent[0], layer)] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def covered_s(self) -> float:
        """Time covered by any span: the sum of all layers' self times."""
        return sum(self.self_s.values())

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: LayerTracer,
            layers=LAYERS) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that undoes it.

    A module-level function is replaced wherever a loaded ``repro``
    module holds it (``from x import f`` makes a second binding), so
    import every module whose bindings matter before calling this.
    """
    undo: list[tuple[object, str, object]] = []
    for module_name, path, layer in layers:
        owner, name = _resolve(module_name, path)
        original = owner.__dict__[name]
        wrapped = tracer.wrap(layer, original, _HOOKS.get(path))
        if isinstance(owner, type):
            undo.append((owner, name, original))
            setattr(owner, name, wrapped)
            continue
        for module in list(sys.modules.values()):
            if (module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(name) is original):
                undo.append((module, name, original))
                setattr(module, name, wrapped)

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
