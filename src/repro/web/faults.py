"""Deterministic fault injection for the synthetic web.

A production-scale crawl (Section 5 visits ~8,000 domains; the Table 3
zone scan visits millions) sees every failure mode a network has:
resolver loss, connect/read timeouts, 5xx pages, short reads, redirect
loops, tarpit-slow servers, and flaky hosts that succeed only on a
retry.  The paper itself fought hostile servers (Section 4.2.3 —
ParkingCrew's anti-curl 403s, Uniregistry's cookie-redirect dance), and
follow-up crawl studies report large failure tails.

This module injects those failures *deterministically* so the
resilience layer (:mod:`repro.web.resilience`) can be exercised at
scale and every run is reproducible:

* :class:`FaultPlan` decides, per domain, which fault (if any) that
  domain exhibits.  Decisions are pure functions of ``(seed, domain)``
  — independent of visit order — so two runs with the same seed see
  identical fault sequences no matter how the crawl is scheduled.
* :class:`FaultInjector` applies a plan to browser visits via
  :meth:`FaultInjector.run`.  It owns the only mutable state —
  per-domain flaky countdowns — and a
  :class:`~repro.web.resilience.SimulatedClock` it advances by each
  attempt's latency.

A plan's only randomness is a 64-bit salt drawn at construction from
``random.Random(seed)``; every per-domain decision hashes that salt
with the domain name.  Backoff jitter is not drawn here: the crawler
derives it per visit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, TypeVar

from repro.web.http import (
    ConnectTimeout,
    DnsFailure,
    ReadTimeout,
    ServerFault,
    TooManyRedirects,
    TruncatedBody,
)

__all__ = [
    "FaultKind",
    "FaultSpec",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "DEFAULT_FAULT_MIX",
]

_T = TypeVar("_T")


class FaultKind(str, Enum):
    """The failure modes a live crawl sees, per the motivating studies."""

    DNS_FAILURE = "dns"
    CONNECT_TIMEOUT = "connect-timeout"
    READ_TIMEOUT = "read-timeout"
    SERVER_ERROR = "server-error"
    TRUNCATED_BODY = "truncated-body"
    REDIRECT_LOOP = "redirect-loop"
    SLOW_RESPONSE = "slow-response"
    FLAKY = "flaky"


#: Relative weights used by :meth:`FaultPlan.uniform` to split an
#: overall fault rate across kinds (roughly the mix crawl studies
#: report: timeouts and DNS dominate, loops are rare).
DEFAULT_FAULT_MIX: tuple[tuple[FaultKind, float], ...] = (
    (FaultKind.DNS_FAILURE, 3.0),
    (FaultKind.CONNECT_TIMEOUT, 3.0),
    (FaultKind.READ_TIMEOUT, 2.0),
    (FaultKind.SERVER_ERROR, 2.0),
    (FaultKind.TRUNCATED_BODY, 1.0),
    (FaultKind.REDIRECT_LOOP, 0.5),
    (FaultKind.SLOW_RESPONSE, 1.5),
    (FaultKind.FLAKY, 3.0),
)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One rule of a fault plan.

    ``rate`` is the probability a matching domain exhibits ``kind``.
    ``domains`` (exact FQD match) and ``group_index`` (the survey's
    sample group) narrow the rule; ``None`` matches everything —
    together they give the per-domain and per-group rates the survey
    needs.  ``flaky_failures`` is how many attempts a FLAKY domain
    fails before succeeding; ``slow_factor`` multiplies base latency
    for SLOW_RESPONSE.
    """

    kind: FaultKind
    rate: float
    domains: frozenset[str] | None = None
    group_index: int | None = None
    flaky_failures: int = 2
    slow_factor: float = 25.0

    def matches(self, domain: str, group_index: int) -> bool:
        if self.domains is not None and domain not in self.domains:
            return False
        if self.group_index is not None and group_index != self.group_index:
            return False
        return True


@dataclass(frozen=True, slots=True)
class Fault:
    """The fault assigned to one domain (resolved from a spec)."""

    kind: FaultKind
    flaky_failures: int = 2
    slow_factor: float = 25.0


#: Base latency band for a simulated visit, seconds.
_LATENCY_FLOOR = 0.05
_LATENCY_SPAN = 0.30

#: Simulated cost of the failure modes, seconds (what a real client
#: would burn before giving up).
_CONNECT_TIMEOUT_S = 3.0
_READ_TIMEOUT_S = 10.0
_DNS_FAILURE_S = 0.02


class FaultPlan:
    """A seeded, order-independent assignment of faults to domains.

    >>> plan = FaultPlan.uniform(0.2, seed=7)
    >>> plan.fault_for("example.com") == plan.fault_for("example.com")
    True
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), *,
                 seed: int = 0) -> None:
        self._salt = random.Random(seed).getrandbits(64)
        self.specs = tuple(specs)
        for spec in self.specs:
            if not 0.0 <= spec.rate <= 1.0:
                raise ValueError(f"fault rate out of range: {spec.rate}")

    @classmethod
    def uniform(cls, rate: float, *, seed: int = 0,
                mix: tuple[tuple[FaultKind, float], ...] = DEFAULT_FAULT_MIX,
                flaky_failures: int = 2,
                slow_factor: float = 25.0) -> "FaultPlan":
        """Spread one overall fault ``rate`` across ``mix``'s kinds."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate out of range: {rate}")
        total = sum(weight for _, weight in mix)
        specs = [FaultSpec(kind=kind, rate=rate * weight / total,
                           flaky_failures=flaky_failures,
                           slow_factor=slow_factor)
                 for kind, weight in mix]
        return cls(specs, seed=seed)

    def _roll(self, domain: str, label: str) -> float:
        """A deterministic uniform [0, 1) draw for (salt, label, domain)."""
        digest = hashlib.sha256(
            f"{self._salt}:{label}:{domain}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def fault_for(self, domain: str, group_index: int = 0) -> Fault | None:
        """The fault ``domain`` exhibits under this plan, if any.

        One deterministic roll per domain is walked through the
        matching specs' rates as cumulative bands, so rates of
        mutually applicable specs are *additive*: a domain matched by
        specs at 0.1 + 0.1 has exactly a 0.2 chance of some fault, and
        a plan whose matching rates sum to 1.0 faults every domain.
        Specs are evaluated in order; if rates sum past 1.0 the later
        ones are shadowed.
        """
        roll = self._roll(domain, "assign")
        for spec in self.specs:
            if not spec.matches(domain, group_index):
                continue
            if roll < spec.rate:
                return Fault(kind=spec.kind,
                             flaky_failures=spec.flaky_failures,
                             slow_factor=spec.slow_factor)
            roll -= spec.rate
        return None

    def latency_for(self, domain: str) -> float:
        """Deterministic base latency (seconds) for one visit attempt."""
        return _LATENCY_FLOOR + _LATENCY_SPAN * self._roll(domain, "latency")


class FaultInjector:
    """Applies a :class:`FaultPlan` to browser visits.

    The injector is the only stateful piece: it counts attempts per
    domain so FLAKY faults fail their first ``flaky_failures`` attempts
    and then succeed, and it advances ``clock`` by each attempt's
    simulated latency.  :meth:`reset` restores a fresh crawl.
    """

    def __init__(self, plan: FaultPlan, clock=None) -> None:
        from repro.web.resilience import SimulatedClock

        self.plan = plan
        self.clock = clock if clock is not None else SimulatedClock()
        self._flaky_left: dict[str, int] = {}

    def reset(self) -> None:
        self._flaky_left.clear()

    def fault_for_attempt(self, domain: str,
                          group_index: int = 0) -> Fault | None:
        """The fault (if any) to apply to *this* attempt at ``domain``."""
        fault = self.plan.fault_for(domain, group_index)
        if fault is None:
            return None
        if fault.kind is FaultKind.FLAKY:
            left = self._flaky_left.setdefault(domain,
                                               fault.flaky_failures)
            if left <= 0:
                return None
            self._flaky_left[domain] = left - 1
        return fault

    def run(self, domain: str, fn: Callable[[], _T], *,
            group_index: int = 0) -> _T:
        """Run one visit attempt under the plan.

        Raises the taxonomy exception for the domain's fault, or calls
        ``fn`` (possibly slowed).  Failing attempts never call ``fn``,
        so browser state (cookie history) stays identical to a clean
        run once the fault clears — a flaky domain's first *successful*
        visit is still its first visit.
        """
        fault = self.fault_for_attempt(domain, group_index=group_index)
        latency = self.plan.latency_for(domain)
        if fault is None:
            self.clock.advance(latency)
            return fn()
        kind = fault.kind
        if kind is FaultKind.DNS_FAILURE:
            self.clock.advance(_DNS_FAILURE_S)
            raise DnsFailure(f"injected NXDOMAIN for {domain!r}")
        if kind in (FaultKind.CONNECT_TIMEOUT, FaultKind.FLAKY):
            self.clock.advance(_CONNECT_TIMEOUT_S)
            raise ConnectTimeout(f"injected connect timeout for {domain!r}")
        if kind is FaultKind.READ_TIMEOUT:
            self.clock.advance(_READ_TIMEOUT_S)
            raise ReadTimeout(f"injected read timeout for {domain!r}")
        if kind is FaultKind.SERVER_ERROR:
            self.clock.advance(latency)
            raise ServerFault(f"injected HTTP 503 from {domain!r}")
        if kind is FaultKind.TRUNCATED_BODY:
            self.clock.advance(latency)
            raise TruncatedBody(f"injected short read from {domain!r}")
        if kind is FaultKind.REDIRECT_LOOP:
            self.clock.advance(latency)
            url = f"http://{domain}/"
            raise TooManyRedirects(
                f"injected redirect loop at {url}", chain=(url, url))
        # SLOW_RESPONSE: the visit succeeds, just slowly.
        self.clock.advance(latency * fault.slow_factor)
        return fn()
