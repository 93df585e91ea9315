"""Load generator: closed and open loops over real loopback sockets.

Every latency is an exact client-side sample (``time.perf_counter``
around one request/response exchange on a keep-alive connection); no
histogram buckets are involved anywhere.

* :func:`closed_loop` — each connection sends its next request only
  after the previous response arrived, so a slow server receives less
  load.
* :func:`open_loop` — requests fall due on a fixed schedule regardless
  of progress.  The calling thread dispatches each one at its due time
  to a pool of connection threads; a request's latency is timed from
  when it was *due*, so a stall also charges the requests queued behind
  it, and the dispatcher's own lateness is recorded separately.
"""

from __future__ import annotations

import http.client
import json
import math
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

MATCH_PATH = "/v1/match"


class Client:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout_s)

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        self.conn.request("POST", path, body,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


@dataclass
class Exchange:
    """One request sent: what, when, and what came back."""

    body: bytes
    latency_s: float
    status: int
    response: bytes


@dataclass
class LoopResult:
    exchanges: list[Exchange] = field(default_factory=list)
    elapsed_s: float = 0.0


def closed_loop(host: str, port: int, bodies: Iterator[bytes], *,
                connections: int, seconds: float | None = None,
                count: int | None = None) -> LoopResult:
    """Send ``bodies`` over ``connections`` closed-loop connections.

    Stops after ``count`` requests or once ``seconds`` have passed,
    whichever comes first (at least one bound is required).
    """
    if seconds is None and count is None:
        raise ValueError("closed_loop needs seconds or count")
    lock = threading.Lock()
    result = LoopResult()
    sent = 0
    stop_at = (time.perf_counter() + seconds) if seconds is not None \
        else math.inf
    errors: list[BaseException] = []

    def take() -> bytes | None:
        nonlocal sent
        with lock:
            if (count is not None and sent >= count) \
                    or time.perf_counter() >= stop_at:
                return None
            body = next(bodies, None)
            if body is not None:
                sent += 1
            return body

    def worker() -> None:
        client = Client(host, port)
        try:
            while (body := take()) is not None:
                start = time.perf_counter()
                status, response = client.post(MATCH_PATH, body)
                latency = time.perf_counter() - start
                with lock:
                    result.exchanges.append(
                        Exchange(body, latency, status, response))
        except BaseException as exc:  # reported to the caller below
            errors.append(exc)
        finally:
            client.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    result.elapsed_s = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("closed-loop client did not finish")
    if errors:
        raise errors[0]
    return result


# -- open loop -------------------------------------------------------------

def due_times(start: float, rate: float, seconds: float) -> list[float]:
    """When each request of a ``rate``-per-second schedule falls due."""
    return [start + i / rate for i in range(int(round(rate * seconds)))]


@dataclass
class Scheduled:
    """One open-loop request: due, dispatched, sent, done (or never)."""

    due: float
    dispatched: float
    body: bytes
    sent: float | None = None
    done: float | None = None
    status: int = 0
    response: bytes = b""

    @property
    def late_s(self) -> float:
        """How late the generator dispatched this request."""
        return self.dispatched - self.due

    @property
    def latency_s(self) -> float:
        """Time from due to response; infinite if never answered."""
        return math.inf if self.done is None else self.done - self.due


@dataclass
class RateResult:
    rate: float
    offered: int
    completed: int
    p99_ms: float
    backlog_growing: bool
    meets: bool
    records: list[Scheduled]


def judge_rate(rate: float, records: Sequence[Scheduled], *,
               limit_ms: float,
               ok: Callable[[Scheduled], bool]) -> RateResult:
    """Does one open-loop rate meet the latency limit?

    The rate meets the limit when the nearest-rank p99 of latency from
    due, over *every* request offered, is within ``limit_ms`` — a
    request never answered, refused, or answered wrongly counts as
    infinitely late — and the backlog did not grow.  The backlog grew
    when some request was abandoned unsent, or when the median wait for
    a connection over the last third of the schedule exceeds the first
    third's by more than ``limit_ms``.  This is a decision, not a
    reported percentile, so it is taken at any sample count.
    """
    offered = len(records)
    latencies = sorted(r.latency_s * 1000.0 if ok(r) else math.inf
                       for r in records)
    rank = max(1, math.ceil(0.99 * offered - 1e-9))
    p99 = latencies[rank - 1] if latencies else math.inf
    if not records or any(r.sent is None for r in records):
        growing = True
    else:
        waits = [(r.sent - r.due) * 1000.0 for r in records]
        third = max(1, offered // 3)
        growing = (_median(waits[-third:])
                   > _median(waits[:third]) + limit_ms)
    completed = sum(1 for r in records if r.done is not None)
    return RateResult(rate=rate, offered=offered, completed=completed,
                      p99_ms=p99, backlog_growing=growing,
                      meets=p99 <= limit_ms and not growing,
                      records=list(records))


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def open_loop(host: str, port: int, bodies: Iterator[bytes], *,
              rate: float, seconds: float, connections: int,
              drain_s: float = 1.0,
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep
              ) -> list[Scheduled]:
    """Offer ``rate`` requests per second for ``seconds``.

    Requests still queued ``drain_s`` after the last one fell due are
    abandoned unsent (they count as missed); requests in flight are
    waited for.
    """
    pending: queue.SimpleQueue = queue.SimpleQueue()
    records: list[Scheduled] = []
    abandon_at = math.inf
    errors: list[BaseException] = []

    def worker() -> None:
        client = Client(host, port)
        try:
            while (item := pending.get()) is not None:
                if clock() >= abandon_at:
                    continue
                item.sent = clock()
                item.status, item.response = client.post(MATCH_PATH,
                                                         item.body)
                item.done = clock()
        except BaseException as exc:
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    schedule = due_times(clock() + 0.05, rate, seconds)
    for due in schedule:
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        item = Scheduled(due=due, dispatched=clock(), body=next(bodies))
        records.append(item)
        pending.put(item)
    abandon_at = (schedule[-1] if schedule else clock()) + drain_s
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join(timeout=60.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop client did not finish")
    if errors:
        raise errors[0]
    return records


def get_json(host: str, port: int, path: str) -> tuple[int, dict]:
    client = Client(host, port, timeout_s=5.0)
    try:
        status, body = client.get(path)
    finally:
        client.close()
    return status, json.loads(body) if body else {}
