"""Checkpoint (de)serialization of crawl outcomes.

This module is the bridge between :mod:`repro.web.crawler` and
:mod:`repro.state`: it knows how to flatten one completed
:class:`~repro.web.crawler.CrawlOutcome` into the JSON payload of a
journal record, and how to rebuild it on ``--resume`` so the continued
run is *byte-identical* to an uninterrupted one.  The survey executor
(:mod:`repro.parallel.scheduler`) also round-trips every live outcome
through this codec, so a crawled and a restored outcome have the same
shape.

The snapshot captures everything downstream consumers (Table 4,
Figures 6–8, the crawl-health table) read from an outcome.  Request
decisions are stored as their verdict alone and hidden elements as
detached ``(tag, attributes, text, ad_label)`` nodes: the
blocking/exception filter objects and DOM tree links they drop are
never consulted after the visit returns, and carrying live filter
references would tie the journal to engine internals.

No crawler state is journaled: every survey unit runs shared-nothing
(derived rng, fresh breaker, rewound clock), so there is no cross-visit
state for a resume to rewind.
"""

from __future__ import annotations

from repro.filters.engine import Activation, RequestDecision, Verdict
from repro.web.crawler import (
    CrawlOutcome,
    CrawlRecord,
    CrawlStatus,
    CrawlTarget,
)
from repro.web.dom import Element
from repro.web.sites import SiteProfile

__all__ = [
    "snapshot_outcome",
    "restore_outcome",
    "unit_key",
]


# -- outcome snapshots ----------------------------------------------------

def _snapshot_target(target: CrawlTarget) -> dict:
    return {"domain": target.domain, "rank": target.rank,
            "group_index": target.group_index,
            "category": target.category}


def _restore_target(data: dict) -> CrawlTarget:
    return CrawlTarget(domain=data["domain"], rank=data["rank"],
                       group_index=data["group_index"],
                       category=data["category"])


def _snapshot_profile(profile: SiteProfile) -> dict:
    return {
        "domain": profile.domain,
        "rank": profile.rank,
        "category": profile.category,
        "networks": list(profile.networks),
        "whitelist_filters": list(profile.whitelist_filters),
        "first_party_ads": [list(ad) for ad in profile.first_party_ads],
        "ad_intensity": profile.ad_intensity,
        "inert": profile.inert,
        "cookie_sensitive": profile.cookie_sensitive,
        "adblock_detecting": profile.adblock_detecting,
    }


def _restore_profile(data: dict) -> SiteProfile:
    return SiteProfile(
        domain=data["domain"],
        rank=data["rank"],
        category=data["category"],
        networks=list(data["networks"]),
        whitelist_filters=tuple(data["whitelist_filters"]),
        first_party_ads=tuple(tuple(ad) for ad in data["first_party_ads"]),
        ad_intensity=data["ad_intensity"],
        inert=data["inert"],
        cookie_sensitive=data["cookie_sensitive"],
        adblock_detecting=data["adblock_detecting"],
    )


def _snapshot_activation(activation: Activation) -> dict:
    return {"filter_text": activation.filter_text,
            "list_name": activation.list_name,
            "page_host": activation.page_host,
            "target": activation.target,
            "kind": activation.kind,
            "is_exception": activation.is_exception,
            "needless": activation.needless}


def _restore_activation(data: dict) -> Activation:
    return Activation(**data)


def _snapshot_element(element: Element) -> dict:
    return {"tag": element.tag, "attributes": dict(element.attributes),
            "text": element.text, "ad_label": element.ad_label}


def _restore_element(data: dict) -> Element:
    return Element(tag=data["tag"], attributes=dict(data["attributes"]),
                   text=data["text"], ad_label=data["ad_label"])


def snapshot_outcome(outcome: CrawlOutcome) -> dict:
    """Flatten one outcome to the JSON shape journaled per target."""
    record = None
    if outcome.record is not None:
        visit = outcome.record.visit
        record = {
            "page_url": visit.page_url,
            "verdicts": [d.verdict.value for d in visit.decisions],
            "hidden": [_snapshot_element(e) for e in visit.hidden],
            "activations": [_snapshot_activation(a)
                            for a in visit.activations],
            "profile": _snapshot_profile(outcome.record.profile),
        }
    return {
        "target": _snapshot_target(outcome.target),
        "status": outcome.status.value,
        "error_class": outcome.error_class,
        "attempts": outcome.attempts,
        "latency_ms": outcome.latency_ms,
        "breaker_open": outcome.breaker_open,
        "record": record,
    }


def restore_outcome(data: dict) -> CrawlOutcome:
    """Rebuild a :class:`CrawlOutcome` journaled by :func:`snapshot_outcome`."""
    from repro.web.browser import PageVisit

    target = _restore_target(data["target"])
    record = None
    if data["record"] is not None:
        raw = data["record"]
        visit = PageVisit(
            domain=target.domain,
            page_url=raw["page_url"],
            decisions=[RequestDecision(verdict=Verdict(v))
                       for v in raw["verdicts"]],
            hidden=[_restore_element(e) for e in raw["hidden"]],
            activations=[_restore_activation(a)
                         for a in raw["activations"]],
        )
        record = CrawlRecord(target=target, visit=visit,
                             profile=_restore_profile(raw["profile"]))
    return CrawlOutcome(
        target=target,
        status=CrawlStatus(data["status"]),
        record=record,
        error_class=data["error_class"],
        attempts=data["attempts"],
        latency_ms=data["latency_ms"],
        breaker_open=data["breaker_open"],
    )


# -- unit keys --------------------------------------------------------------

def unit_key(group_name: str, target: CrawlTarget) -> str:
    """The journal key identifying one (group, target) unit of work.

    Keys are independent of execution placement, which is what lets
    ``--resume`` continue a run under a different worker count.
    """
    return f"{group_name}/{target.domain}#{target.rank}"
