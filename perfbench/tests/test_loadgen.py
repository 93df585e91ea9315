import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import loadgen


def _record(due, dispatched, sent, done):
    return loadgen.Scheduled(due=due, dispatched=dispatched, body=b"{}",
                             sent=sent, done=done, status=200,
                             response=b"ok")


def test_due_times_follow_the_rate():
    due = loadgen.due_times(10.0, rate=4, seconds=2)
    assert len(due) == 8
    assert due[0] == 10.0
    assert due[1] - due[0] == pytest.approx(0.25)


def test_latency_is_timed_from_due_and_lateness_from_dispatch():
    record = _record(due=1.0, dispatched=1.002, sent=1.050, done=1.060)
    assert record.late_s == pytest.approx(0.002)
    assert record.latency_s == pytest.approx(0.060)
    unanswered = _record(due=1.0, dispatched=1.0, sent=None, done=None)
    assert unanswered.latency_s == math.inf


def test_rate_meets_only_when_p99_from_due_is_within_the_limit():
    fast = [_record(i, i, i, i + 0.001) for i in range(100)]
    verdict = loadgen.judge_rate(25, fast, limit_ms=10, ok=lambda r: True)
    assert verdict.meets and not verdict.backlog_growing
    slow = fast[:98] + [_record(i, i, i, i + 0.050) for i in (98, 99)]
    verdict = loadgen.judge_rate(25, slow, limit_ms=10, ok=lambda r: True)
    assert not verdict.meets and verdict.p99_ms == pytest.approx(50.0)


def test_wrong_or_missing_answers_count_as_misses():
    records = [_record(i, i, i, i + 0.001) for i in range(100)]
    verdict = loadgen.judge_rate(25, records, limit_ms=10,
                                 ok=lambda r: r.due != 50)
    assert verdict.meets          # 1 miss in 100 is within the p99
    records[10] = _record(10, 10, None, None)
    verdict = loadgen.judge_rate(25, records, limit_ms=10,
                                 ok=lambda r: r.due != 50)
    assert not verdict.meets and verdict.backlog_growing


def test_growing_wait_for_a_connection_is_a_growing_backlog():
    records = [_record(i, i, i + i * 0.001, i + i * 0.001 + 0.001)
               for i in range(90)]
    verdict = loadgen.judge_rate(25, records, limit_ms=10,
                                 ok=lambda r: True)
    assert verdict.backlog_growing and not verdict.meets


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall_first = threading.Event()

    def log_message(self, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if not _Stub.stall_first.is_set():
            _Stub.stall_first.set()
            time.sleep(0.2)
        body = b'{"outcome":"served"}\n'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def stub():
    _Stub.stall_first.clear()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it(stub):
    host, port = stub
    records = loadgen.open_loop(host, port, iter(lambda: b"{}", None),
                                rate=50, seconds=0.4, connections=1)
    assert len(records) == 20
    assert all(r.done is not None and r.status == 200 for r in records)
    assert all(r.dispatched >= r.due for r in records)
    # The first request stalls 200 ms on the only connection; the next
    # ones were due every 20 ms and waited behind it.
    assert records[0].latency_s >= 0.2
    assert records[3].sent - records[3].due > 0.1
    assert records[3].latency_s > records[3].done - records[3].sent


def test_closed_loop_stops_at_its_count(stub):
    host, port = stub
    result = loadgen.closed_loop(host, port, iter(lambda: b"{}", None),
                                 connections=2, count=7)
    assert len(result.exchanges) == 7
    assert all(e.status == 200 for e in result.exchanges)
