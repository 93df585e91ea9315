"""The ``serve-ext`` workload: the daemon measured from another process.

``repro serve --fast --seed S --port 0`` runs as a subprocess with the
study's own lists; this process drives it over loopback sockets with at
most ``nproc`` connections.  The corpus is the survey's own pages for
seed S (``build_page`` over the study's profile factory): single
``check_request`` ops, and page batches of ``document_privileges`` plus
every request on the page.  Pages are taken in a seeded order and never
reused within a run, so the daemon's privilege memo is not warmed
artificially.

Every response is checked byte for byte against ``encode(serve_match(
...))`` over an in-process snapshot of the same lists, including after
an ``/admin/reload`` to the EasyList-only configuration.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import dataclass

import checks
import loadgen
import proc
import stats
from layers import LayerTracer, install
from survey import STRATUM, TOP, Outcome, _fmt

SETUP_REPEATS = 3
WARMUP_REQUESTS = 200
RELOAD_PAGES = 5
#: One pass of the fixed 1-connection script: page batches and singles.
PASS_PAGES = 10
PASS_SINGLES = 10
#: Open-loop rates (qps), doubling, and the latency limit on their p99.
RATES = (25, 50, 100, 200, 400)
RATE_SECONDS = 2.0
LIMIT_MS = 10.0
TRACE_SINGLES = stats.samples_needed(99)
TRACE_PAGES = 100
REPLAY_ROUNDS = 3
#: Time cap on the traced single-op loop, so a slow daemon still reports.
TRACE_SINGLES_CAP_S = 75.0
CONNECTIONS = min(2, os.cpu_count() or 1)


@dataclass
class Corpus:
    sources: list[tuple[str, str]]
    pages: list[bytes]
    singles: list[bytes]


def _body(ops) -> bytes:
    if isinstance(ops, dict):
        return json.dumps(ops, sort_keys=True).encode()
    return json.dumps({"requests": ops}, sort_keys=True).encode()


def build_sources(seed: int):
    """The daemon's boot path, in-process: history, lists, sources."""
    from repro.history.generator import generate_history
    from repro.measurement.survey import build_engines

    history = generate_history(seed=seed, key_bits=128)
    _, easylist, whitelist = build_engines(history)
    sources = [(fl.name, "\n".join(entry.text for entry in fl.entries))
               for fl in (easylist, whitelist)]
    return history, sources


def build_corpus(seed: int, history, sources) -> Corpus:
    from repro.measurement.samples import build_samples
    from repro.measurement.survey import make_profile_factory
    from repro.web.sites import build_page
    from repro.web.url import parse_url

    groups = build_samples(history.population.ranking, top_n=TOP,
                           stratum_size=STRATUM)
    factory = make_profile_factory(history)
    pages: list[list[dict]] = []
    seen: set[str] = set()
    for group in groups:
        for target in group.targets:
            if target.domain in seen:
                continue
            seen.add(target.domain)
            profile = factory(target)
            page = build_page(profile, has_cookies=False,
                              adblock_visible=profile.adblock_detecting)
            page_url = page.document.url
            page_host = parse_url(page_url).host
            ops = [{"op": "document_privileges", "page_url": page_url,
                    "page_host": page_host}]
            for request in page.requests:
                ops.append({"op": "check_request", "url": request.url,
                            "content_type": request.content_type.name,
                            "page_host": page_host,
                            "request_host": parse_url(request.url).host,
                            "page_url": page_url})
            pages.append(ops)
    rng = random.Random(seed)
    rng.shuffle(pages)
    singles = [op for ops in pages for op in ops[1:]]
    rng.shuffle(singles)
    return Corpus(sources=sources, pages=[_body(ops) for ops in pages],
                  singles=[_body(op) for op in singles])


class Daemon:
    """One ``repro serve`` subprocess, booted until ``/readyz`` is 200."""

    def __init__(self, seed: int) -> None:
        self.child = proc.Child(proc.python(
            "-m", "repro", "serve", "--fast", "--seed", str(seed),
            "--port", "0"), name="serve")
        try:
            self.host, self.port = self._address()
            self._await_ready()
        except BaseException:
            self.child.kill()
            raise
        self.setup_s = time.perf_counter() - self.child.started
        self.pid = self.child.pid

    def _address(self) -> tuple[str, int]:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            for line in self.child.read_stdout().splitlines():
                if line.startswith("serving epoch") and "http://" in line:
                    host, port = line.rsplit("http://", 1)[1].split(":")
                    return host, int(port)
            if self.child.popen.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("daemon did not announce its address")

    def _await_ready(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                status, _ = loadgen.get_json(self.host, self.port, "/readyz")
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.002)
        raise RuntimeError("daemon never became ready")

    def cpu_s(self) -> float:
        return proc.process_cpu_s(self.pid)

    def hwm_mb(self) -> float:
        return proc.proc_hwm_mb(self.pid)

    def stop(self) -> proc.Finished:
        return self.child.terminate()


class Feed:
    """Hands out corpus bodies in order.

    Page batches are never reused within a run (``cycle=False``), so
    the daemon's privilege memo sees each page once; single ops may
    wrap around, because a faster daemon drains more of them.
    """

    def __init__(self, bodies: list[bytes], *, cycle: bool) -> None:
        self._bodies = bodies
        self._cycle = cycle
        self._next = 0

    @property
    def remaining(self) -> int:
        return len(self._bodies) - self._next

    def take(self, n: int) -> list[bytes]:
        if self._cycle:
            start = self._next
            self._next = (start + n) % len(self._bodies)
            return [self._bodies[(start + i) % len(self._bodies)]
                    for i in range(n)]
        if n > self.remaining:
            raise RuntimeError(f"corpus exhausted: {n} pages wanted, "
                               f"{self.remaining} left")
        chunk = self._bodies[self._next:self._next + n]
        self._next += n
        return chunk

    def __iter__(self):
        return self

    def __next__(self) -> bytes:
        return self.take(1)[0]


class Ledger:
    """Every exchange of a run, checked against its parity oracle."""

    def __init__(self) -> None:
        self.checked: list[tuple[checks.ParityOracle, list]] = []

    def add(self, oracle: checks.ParityOracle, exchanges) -> None:
        self.checked.append((oracle, list(exchanges)))

    def tally(self) -> tuple[int, int]:
        attempted = failed = 0
        for oracle, exchanges in self.checked:
            attempted += len(exchanges)
            failed += checks.count_mismatches(exchanges, oracle.ok)
        return attempted, failed


def _pass(client: loadgen.Client, script: list[bytes],
          stop_at: float = float("inf")):
    """One closed-loop pass on one connection: per-request exchanges."""
    exchanges = []
    for body in script:
        if time.perf_counter() >= stop_at:
            break
        start = time.perf_counter()
        status, response = client.post(loadgen.MATCH_PATH, body)
        exchanges.append(loadgen.Exchange(body, time.perf_counter() - start,
                                          status, response))
    return exchanges


def _as_triples(exchanges):
    return [(e.status, e.body, e.response) for e in exchanges]


def _warm_up(daemon: Daemon, pages: Feed, singles: Feed, ledger, oracle):
    mixed = []
    for page, single in zip(pages.take(WARMUP_REQUESTS // 2),
                            singles.take(WARMUP_REQUESTS // 2)):
        mixed += [page, single]
    warm = loadgen.closed_loop(daemon.host, daemon.port, iter(mixed),
                               connections=CONNECTIONS,
                               count=len(mixed))
    ledger.add(oracle, _as_triples(warm.exchanges))


def _reload(daemon: Daemon, sources, ledger, reload_oracle,
            pages: Feed, singles: Feed) -> float:
    """Reload to EasyList only, then check responses against the new lists."""
    body = json.dumps({"lists": [{"name": name, "text": text}
                                 for name, text in sources[:1]]}).encode()
    client = loadgen.Client(daemon.host, daemon.port, timeout_s=60.0)
    try:
        start = time.perf_counter()
        status, response = client.post("/admin/reload", body)
        reload_s = time.perf_counter() - start
        if status != 200 or json.loads(response)["status"] != "swapped":
            raise RuntimeError(f"reload failed: {status} {response[:200]!r}")
        script = [b for pair in zip(pages.take(RELOAD_PAGES),
                                         singles.take(RELOAD_PAGES))
                  for b in pair]
        ledger.add(reload_oracle, _as_triples(_pass(client, script)))
    finally:
        client.close()
    return reload_s


def _oracles(sources):
    from repro.serve import protocol
    from repro.serve.reload import build_snapshot_from_sources

    return (checks.ParityOracle(build_snapshot_from_sources(sources),
                                protocol),
            checks.ParityOracle(build_snapshot_from_sources(sources[:1]),
                                protocol))


def measure(seed: int, seconds: float) -> Outcome:
    """Untraced: set-up, the fixed 1-connection script, 2 connections."""
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        daemon = Daemon(seed)
        setups.append(daemon.setup_s)
        daemon.stop()
    daemon = Daemon(seed)
    setups.append(daemon.setup_s)
    try:
        history, sources = build_sources(seed)
        corpus = build_corpus(seed, history, sources)
        oracle, reload_oracle = _oracles(sources)
        pages = Feed(corpus.pages, cycle=False)
        singles = Feed(corpus.singles, cycle=True)
        ledger = Ledger()
        _warm_up(daemon, pages, singles, ledger, oracle)

        pass_walls, single_ms, page_ms = [], [], []
        client = loadgen.Client(daemon.host, daemon.port)
        start = time.perf_counter()
        # The daemon's CPU over all passes, not a median of passes: each
        # pass carries other pages, and one pass's CPU varies twofold
        # with them.
        cpu_before = daemon.cpu_s()
        try:
            while True:
                script = [b for pair in zip(pages.take(PASS_PAGES),
                                            singles.take(PASS_SINGLES))
                          for b in pair]
                began = time.perf_counter()
                exchanges = _pass(client, script)
                pass_walls.append(time.perf_counter() - began)
                ledger.add(oracle, _as_triples(exchanges))
                page_ms += [e.latency_s * 1e3 for e in exchanges[0::2]]
                single_ms += [e.latency_s * 1e3 for e in exchanges[1::2]]
                elapsed = time.perf_counter() - start
                if (elapsed + elapsed / len(pass_walls) > 0.7 * seconds
                        or pages.remaining < PASS_PAGES + RELOAD_PAGES):
                    break
        finally:
            client.close()
        passes_cpu = daemon.cpu_s() - cpu_before

        c2 = loadgen.closed_loop(daemon.host, daemon.port, singles,
                                 connections=CONNECTIONS,
                                 seconds=0.3 * seconds)
        ledger.add(oracle, _as_triples(c2.exchanges))
        qps_c2 = len(c2.exchanges) / c2.elapsed_s
        _reload(daemon, sources, ledger, reload_oracle, pages, singles)
        hwm = daemon.hwm_mb()
    finally:
        daemon.stop()
    attempted, failed = ledger.tally()
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(pass_walls),
               "cpu_s": passes_cpu / len(pass_walls),
               "peak_rss_mb": hwm}
    n = len(pass_walls)
    lines = [
        f"setup_s          {metrics['setup_s']:.4f} s   spawn to /readyz "
        f"200, median of {len(setups)} boots",
        f"wall_s           {metrics['wall_s']:.4f} s   one pass of "
        f"{PASS_PAGES} page batches + {PASS_SINGLES} singles on 1 "
        f"connection, median of {n} passes",
        f"cpu_s            {metrics['cpu_s']:.4f} s   daemon user+sys per "
        f"pass: {passes_cpu:.3f} s over all {n} passes",
        f"peak_rss_mb      {hwm:.2f} MB  daemon VmHWM",
        f"rtt_p50_ms       {_p(single_ms, 50)} ms  closed loop, 1 "
        f"connection, single ops (n={len(single_ms)})",
        f"rtt_p99_ms       {_p(single_ms, 99)} ms  (n={len(single_ms)})",
        f"page_rtt_p50_ms  {_p(page_ms, 50)} ms  page batches "
        f"(n={len(page_ms)})",
        f"qps_c2           {qps_c2:.2f} 1/s  closed loop, {CONNECTIONS} "
        f"connections (n={len(c2.exchanges)})",
        "slo_rate_qps     measured by the traced run (--trace 1)",
        f"failed_frac      {failed}/{attempted} requests not served "
        f"or not byte-equal to the in-process reference",
    ]
    return Outcome(correct=failed == 0, attempted=attempted, failed=failed,
                   metrics=metrics, lines=lines, runs=n,
                   input_size=_input_size(corpus))


def _p(samples, q) -> str:
    try:
        return f"{stats.percentile(samples, q):.3f}"
    except stats.TooFewSamples as exc:
        return f"n/a ({exc})"


def _tail(samples: list[float], lines: list[str]) -> float:
    """p99, or, when the time cap left too few samples, the nearest-rank
    p99 with a warning that it is not supported by ten samples."""
    try:
        return stats.percentile(samples, 99)
    except stats.TooFewSamples as exc:
        lines.append(f"WARNING serve.rtt_p99_ms: {exc}; reporting the "
                     "nearest-rank p99 of the samples taken")
        ordered = sorted(samples)
        return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


def _input_size(corpus: Corpus) -> str:
    filters = sum(len([line for line in text.splitlines() if line])
                  for _, text in corpus.sources)
    return (f"{len(corpus.pages)} pages, {len(corpus.singles)} single ops, "
            f"{filters} list lines")


# -- traced run -----------------------------------------------------------

def _replay(bodies: list[bytes], snapshot, protocol):
    """Serve ``bodies`` in-process, timing parse, engine and encode."""
    parse_us, engine_us, encode_us = [], [], []
    clock = time.perf_counter
    start = clock()
    for body in bodies:
        t0 = clock()
        requests = protocol.parse_match_payload(body)
        t1 = clock()
        _outcome, payload = protocol.serve_match(snapshot, requests)
        t2 = clock()
        protocol.encode(payload)
        t3 = clock()
        parse_us.append((t1 - t0) * 1e6)
        engine_us.append((t2 - t1) * 1e6)
        encode_us.append((t3 - t2) * 1e6)
    return clock() - start, parse_us, engine_us, encode_us


SERVE_LAYERS = (
    ("repro.serve.protocol", "parse_match_payload", "serve.parse"),
    ("repro.serve.protocol", "serve_match", "serve.engine"),
    ("repro.serve.protocol", "encode", "serve.encode"),
)


def trace(seed: int, seconds: float) -> Outcome:
    """Traced: in-process layers, exact tails, open-loop ladder, reload."""
    import layers as layer_table
    import repro.measurement.survey  # noqa: F401 (bindings to wrap)
    from repro.serve import protocol
    from repro.serve.reload import build_snapshot_from_sources
    from survey import layer_metrics

    daemon = Daemon(seed)
    try:
        boot = LayerTracer()
        undo = install(boot)
        try:
            history, sources = build_sources(seed)
            build_snapshot_from_sources(sources)
        finally:
            undo()
        corpus = build_corpus(seed, history, sources)
        oracle, reload_oracle = _oracles(sources)
        pages = Feed(corpus.pages, cycle=False)
        singles = Feed(corpus.singles, cycle=True)
        ledger = Ledger()
        _warm_up(daemon, pages, singles, ledger, oracle)

        single_bodies = singles.take(TRACE_SINGLES)
        page_bodies = pages.take(TRACE_PAGES)
        # Untraced and traced replays of the same bodies, alternating,
        # each on a cold snapshot of the same lists; a throwaway replay
        # first, so neither side pays the process's first-use costs.
        replay_set = single_bodies + page_bodies
        _replay(replay_set, build_snapshot_from_sources(sources), protocol)
        replay = LayerTracer()
        plain_walls, traced_walls = [], []
        parse_us, engine_us, encode_us = [], [], []
        for _ in range(REPLAY_ROUNDS):
            wall, parse, engine, encode = _replay(
                replay_set, build_snapshot_from_sources(sources), protocol)
            plain_walls.append(wall)
            n = len(single_bodies)
            parse_us += parse[:n]
            engine_us += engine[:n]
            encode_us += encode[:n]
            cold = build_snapshot_from_sources(sources)
            undo = install(replay, layer_table.LAYERS + SERVE_LAYERS)
            try:
                traced_walls.append(_replay(replay_set, cold, protocol)[0])
            finally:
                undo()

        client = loadgen.Client(daemon.host, daemon.port)
        try:
            cpu_before = daemon.cpu_s()
            singles_x = _pass(client, single_bodies,
                              time.perf_counter() + TRACE_SINGLES_CAP_S)
            daemon_cpu = daemon.cpu_s() - cpu_before
            pages_x = _pass(client, page_bodies)
        finally:
            client.close()
        ledger.add(oracle, _as_triples(singles_x + pages_x))
        c2 = loadgen.closed_loop(daemon.host, daemon.port, singles,
                                 connections=CONNECTIONS, seconds=3.0)
        ledger.add(oracle, _as_triples(c2.exchanges))

        ladder, lateness_ms = [], []
        for rate in RATES:
            records = loadgen.open_loop(
                daemon.host, daemon.port, singles, rate=rate,
                seconds=RATE_SECONDS, connections=CONNECTIONS)
            lateness_ms += [r.late_s * 1e3 for r in records]
            ledger.add(oracle, [(r.status, r.body, r.response)
                                for r in records if r.done is not None])
            ladder.append(loadgen.judge_rate(
                rate, records, limit_ms=LIMIT_MS,
                ok=lambda r: oracle.ok(r.status, r.body, r.response)))
        reload_s = _reload(daemon, sources, ledger, reload_oracle,
                           pages, singles)
        _, flat = loadgen.get_json(daemon.host, daemon.port, "/metricz")
    finally:
        daemon.stop()

    single_ms = [e.latency_s * 1e3 for e in singles_x]
    page_ms = [e.latency_s * 1e3 for e in pages_x]
    work_p50_us = (stats.percentile(parse_us, 50)
                   + stats.percentile(engine_us, 50)
                   + stats.percentile(encode_us, 50))
    rtt_p50 = stats.percentile(single_ms, 50)
    per_round = replay.snapshot()
    for table in ("self_s", "counts"):
        per_round[table] = {k: v / REPLAY_ROUNDS
                            for k, v in per_round[table].items()}
    metrics = {k: v for k, v in layer_metrics(per_round).items()
               if k.startswith(("engine.", "index."))}
    boot_metrics = layer_metrics(boot.snapshot())
    for name in ("history.generate_s", "filters.parse_s",
                 "filters.parse_lines", "engine.freeze_s"):
        metrics[name] = boot_metrics[name]
    met = [step.rate for step in ladder if step.meets]
    lines: list[str] = []
    metrics.update({
        "serve.rtt_p50_ms": rtt_p50,
        "serve.rtt_p99_ms": _tail(single_ms, lines),
        "serve.page_rtt_p50_ms": stats.percentile(page_ms, 50),
        "serve.qps_c2": len(c2.exchanges) / c2.elapsed_s,
        "serve.slo_rate_qps": float(max(met)) if met else 0.0,
        "serve.parse_us": stats.percentile(parse_us, 50),
        "serve.engine_us": stats.percentile(engine_us, 50),
        "serve.encode_us": stats.percentile(encode_us, 50),
        "serve.transport_ms": rtt_p50 - work_p50_us / 1000.0,
        "serve.daemon_cpu_us_per_req": daemon_cpu / len(singles_x) * 1e6,
        "serve.shed": sum(value for key, value in flat.items()
                          if key.startswith("serve.admission.shed")),
        "serve.gen_late_p99_ms": stats.percentile(lateness_ms, 99),
        "serve.reload_s": reload_s,
        "trace.overhead_frac": (statistics.median(traced_walls)
                                / statistics.median(plain_walls) - 1.0),
        "trace.unaccounted_frac": (1.0 - replay.covered_s()
                                   / sum(traced_walls)),
    })
    attempted, failed = ledger.tally()
    lines += [f"rtt {stats.describe(single_ms, 'ms')}; page rtt "
             f"{stats.describe(page_ms, 'ms')}",
             f"qps_c2 {metrics['serve.qps_c2']:.2f} over {CONNECTIONS} "
             f"connections (n={len(c2.exchanges)})",
             f"generator lateness {stats.describe(lateness_ms, 'ms')}"]
    for step in ladder:
        lines.append(
            f"open loop {step.rate:>4} qps: offered {step.offered}, "
            f"answered {step.completed}, p99 from due "
            f"{step.p99_ms:.1f} ms, backlog "
            f"{'growing' if step.backlog_growing else 'steady'} -> "
            f"{'meets' if step.meets else 'misses'} {LIMIT_MS:g} ms")
    lines.append(f"in-process replay of the {len(single_bodies)} single "
                 f"ops and {len(page_bodies)} page batches sent below, on "
                 f"cold snapshots of the same lists, {REPLAY_ROUNDS} rounds: "
                 f"untraced {_fmt(plain_walls)} s, traced "
                 f"{_fmt(traced_walls)} s; serve.*_us are single-op medians "
                 "of the untraced rounds, engine.* and index.* per round")
    return Outcome(correct=failed == 0, attempted=attempted, failed=failed,
                   metrics=metrics, lines=lines, runs=1,
                   input_size=_input_size(corpus))

