"""Synthetic web substrate: URLs, HTTP, DOM, sites, browser, crawler.

This subpackage replaces the live Internet the paper crawled.  Sites are
generated deterministically from their domain names; ad stacks come from
the shared network catalog; the instrumented browser plays the role of
Selenium driving a patched Adblock Plus.
"""

from repro.web.adnetworks import (
    AdNetwork,
    AdResource,
    NETWORK_CATALOG,
    blocking_networks,
    network,
    whitelisted_networks,
)
from repro.web.browser import InstrumentedBrowser, PageVisit
from repro.web.crawler import (
    Crawler,
    CrawlHealth,
    CrawlOutcome,
    CrawlRecord,
    CrawlStatus,
    CrawlTarget,
    crawl,
    crawl_health,
)
from repro.web.faults import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.web.devtools import (
    BlockableItem,
    Disposition,
    blockable_items,
    render_blockable_items,
)
from repro.web.dom import Document, Element
from repro.web.http import (
    CURL_USER_AGENT,
    DEFAULT_USER_AGENT,
    ConnectTimeout,
    CookieJar,
    DnsFailure,
    Headers,
    HttpClient,
    HttpError,
    HttpRequest,
    HttpResponse,
    ReadTimeout,
    ServerFault,
    TooManyRedirects,
    TransportError,
    TruncatedBody,
)
from repro.web.resilience import (
    OutcomeStatus,
    RetryPolicy,
    SimulatedClock,
    classify_error,
    execute_with_policy,
)
from repro.web.sites import (
    BuiltPage,
    PageRequest,
    PINNED_PROFILES,
    SiteProfile,
    build_page,
    pinned_profile,
    profile_for_domain,
)
from repro.web.url import (
    URL,
    URLError,
    is_subdomain_of,
    is_third_party,
    parse_url,
    public_suffix,
    registered_domain,
)

__all__ = [
    "AdNetwork",
    "BlockableItem",
    "Disposition",
    "blockable_items",
    "render_blockable_items",
    "AdResource",
    "BuiltPage",
    "CURL_USER_AGENT",
    "ConnectTimeout",
    "CookieJar",
    "CrawlHealth",
    "CrawlOutcome",
    "CrawlRecord",
    "CrawlStatus",
    "CrawlTarget",
    "Crawler",
    "DEFAULT_USER_AGENT",
    "DnsFailure",
    "Document",
    "Element",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "Headers",
    "HttpClient",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "InstrumentedBrowser",
    "NETWORK_CATALOG",
    "OutcomeStatus",
    "PINNED_PROFILES",
    "PageRequest",
    "PageVisit",
    "ReadTimeout",
    "RetryPolicy",
    "ServerFault",
    "SimulatedClock",
    "SiteProfile",
    "TooManyRedirects",
    "TransportError",
    "TruncatedBody",
    "URL",
    "URLError",
    "blocking_networks",
    "build_page",
    "classify_error",
    "crawl",
    "crawl_health",
    "execute_with_policy",
    "is_subdomain_of",
    "is_third_party",
    "network",
    "parse_url",
    "pinned_profile",
    "profile_for_domain",
    "public_suffix",
    "registered_domain",
    "whitelisted_networks",
]
