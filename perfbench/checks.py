"""Correctness checks applied to every timed run.

The survey's stdout must equal a reference computed once per invocation
through a *different* executor (the byte-identity contract across
worker counts), and every serving response must be byte-equal to the
canonical encoding of the same request served in-process.
"""

from __future__ import annotations

from typing import Callable


def survey_output_ok(output: str, reference: str) -> bool:
    """A survey run is correct when its stdout is the reference, byte for byte."""
    return bool(reference) and output == reference


def crawl_health(stdout: str) -> dict[str, int]:
    """The survey's ``Crawl health`` table as ``{row label: count}``."""
    rows: dict[str, int] = {}
    lines = stdout.splitlines()
    try:
        start = lines.index("Crawl health")
    except ValueError:
        return rows
    for line in lines[start + 3:]:
        label, sep, rest = line.partition("  ")
        if not sep or not rest.strip():
            break
        count = rest.split()[0].replace(",", "")
        try:
            rows[label.strip()] = int(float(count))
        except ValueError:
            break
    return rows


class ParityOracle:
    """Expected response bytes for a request body, served in-process.

    ``snapshot`` is an engine snapshot built from the same lists the
    daemon serves; the expected body is ``encode(serve_match(...))``,
    exactly what the daemon computes when no deadline expires.
    """

    def __init__(self, snapshot, protocol) -> None:
        self.snapshot = snapshot
        self._protocol = protocol
        self._memo: dict[bytes, bytes] = {}

    def expected(self, body: bytes) -> bytes:
        cached = self._memo.get(body)
        if cached is None:
            requests = self._protocol.parse_match_payload(body)
            _outcome, payload = self._protocol.serve_match(self.snapshot,
                                                           requests)
            cached = self._memo[body] = self._protocol.encode(payload)
        return cached

    def ok(self, status: int, body: bytes, response: bytes) -> bool:
        return status == 200 and response == self.expected(body)


def count_mismatches(exchanges, check: Callable[[int, bytes, bytes], bool]
                     ) -> int:
    """How many ``(status, request body, response body)`` fail ``check``."""
    return sum(1 for status, body, response in exchanges
               if not check(status, body, response))
