"""The Adblock Plus decision engine: blacklists + the Acceptable Ads whitelist.

This module reproduces the content-blocking semantics the paper measures:

* a *blocking* filter match cancels a web request — unless *any* matching
  exception filter overrides it ("regardless of any blocking filter
  matches", Section 2.1.1);
* a ``$document`` exception matching the page's own URL (or validated via
  a sitekey signature, Section 4.2.3) disables **all** blocking on that
  page — this is the sitekey bypass of Figure 5;
* an ``$elemhide`` exception matching the page URL disables all
  element-hiding filters on that page (the ``@@||ask.com^$elemhide``
  A-filters of Section 7);
* element-hiding filters (``##``) hide DOM elements unless an element
  exception (``#@#``) with a matching selector applies on that domain.

Every filter consultation can be *recorded*: the survey of Section 5 runs
an instrumented engine that logs each activation (filter, source list,
URL, page) — including "needless" whitelist activations where the
exception fired but nothing would have been blocked, a phenomenon the
paper calls out explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.filters.filterlist import FilterList
from repro.filters.index import FilterIndex
from repro.filters.options import ContentType
from repro.filters.parser import ElementFilter, RequestFilter
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.web.dom import Element

__all__ = [
    "Verdict",
    "Activation",
    "RequestDecision",
    "DocumentPrivileges",
    "EngineSnapshot",
    "FrozenEngineError",
    "AdblockEngine",
]


class Verdict(enum.Enum):
    """Outcome of a request consultation."""

    BLOCK = "block"
    ALLOW = "allow"          # an exception filter overrode blocking
    NO_MATCH = "no_match"    # nothing matched; request proceeds


@dataclass(frozen=True, slots=True)
class Activation:
    """One recorded filter activation."""

    filter_text: str
    list_name: str
    page_host: str
    target: str              # request URL, or selector for element filters
    kind: str                # "request" | "element" | "document"
    is_exception: bool
    needless: bool = False   # exception fired with no blocking counterpart


@dataclass(frozen=True, slots=True)
class RequestDecision:
    """Full result of consulting the engine about one request."""

    verdict: Verdict
    blocking: tuple[RequestFilter, ...] = ()
    exceptions: tuple[RequestFilter, ...] = ()

    @property
    def blocked(self) -> bool:
        return self.verdict is Verdict.BLOCK


@dataclass(frozen=True, slots=True)
class DocumentPrivileges:
    """Page-level privileges granted by ``$document``/``$elemhide``.

    ``allow_all`` short-circuits every blocking decision on the page;
    ``disable_elemhide`` turns off element hiding.  ``granted_by`` names
    the filters responsible (they count as activations).
    """

    allow_all: bool = False
    disable_elemhide: bool = False
    granted_by: tuple[RequestFilter, ...] = ()


class FrozenEngineError(RuntimeError):
    """Raised when a frozen engine (or a snapshot session) is mutated."""


class EngineSnapshot:
    """The frozen, shareable compiled form of an engine's subscriptions.

    A snapshot owns everything that is expensive to build and safe to
    share: the keyword-bucketed request-filter indices, the element
    filter lists, the filter→list-name map, the subscription epoch, and
    the long-lived page-privilege memo.  It is immutable by contract —
    no method on it (or on any session over it) adds or removes filters
    — which is what makes one snapshot safely shareable between every
    request thread of a serving daemon, and buildable off-thread while
    an old snapshot keeps serving (:mod:`repro.serve`).

    Sessions are the thin mutable layer: :meth:`session` returns an
    :class:`AdblockEngine` that aliases the compiled structures but has
    its own ``recording`` flag and activation log.

    >>> from repro.filters.filterlist import parse_filter_list
    >>> snap = EngineSnapshot.build([parse_filter_list("||ads.example^",
    ...                                                name="demo")])
    >>> session = snap.session()
    >>> session.check_request("http://ads.example/x", ContentType.SCRIPT,
    ...                       "example.com", "ads.example").blocked
    True
    >>> session.subscribe(parse_filter_list("||more.example^", name="m"))
    Traceback (most recent call last):
        ...
    repro.filters.engine.FrozenEngineError: engine is frozen: build a new EngineSnapshot instead of subscribing
    """

    __slots__ = ("blocking", "exceptions", "element_hide",
                 "element_exceptions", "lists", "epoch",
                 "_list_of_filter", "_privilege_cache")

    def __init__(self, *, blocking, exceptions,
                 element_hide: list[tuple[str, ElementFilter]],
                 element_exceptions: list[tuple[str, ElementFilter]],
                 lists: tuple[FilterList, ...],
                 list_of_filter: dict[int, str],
                 epoch: int) -> None:
        self.blocking = blocking
        self.exceptions = exceptions
        self.element_hide = element_hide
        self.element_exceptions = element_exceptions
        self.lists = lists
        self.epoch = epoch
        self._list_of_filter = list_of_filter
        # Shared across every session: privilege answers are a pure
        # function of (epoch, page_url, page_host, sitekey), so one
        # session's miss is every session's hit.
        self._privilege_cache: dict[
            tuple, tuple[bool, bool, tuple[RequestFilter, ...]]] = {}

    @classmethod
    def build(cls, filter_lists: Iterable[FilterList]) -> "EngineSnapshot":
        """Compile ``filter_lists`` into a frozen snapshot.

        This is the off-thread entry point the serving daemon's
        hot-reload uses: building touches nothing shared, so it can run
        in the background while an older snapshot keeps serving.
        """
        engine = AdblockEngine()
        for filter_list in filter_lists:
            engine.subscribe(filter_list)
        return engine.freeze()

    def list_name_for(self, flt: RequestFilter | ElementFilter) -> str:
        return self._list_of_filter.get(id(flt), "?")

    @property
    def filter_count(self) -> int:
        """Total active filters compiled into this snapshot."""
        return sum(len(fl) for fl in self.lists)

    def compiled_stats(self) -> dict[str, dict[str, int]]:
        """Per-index size figures (``/healthz``, the compile-index CLI).

        Empty when the snapshot's indexes are not compiled (only
        possible for hand-assembled snapshots; :meth:`build` and
        :meth:`AdblockEngine.freeze` always compile).
        """
        stats: dict[str, dict[str, int]] = {}
        for name in ("blocking", "exceptions"):
            index = getattr(self, name)
            stats_fn = getattr(index, "stats", None)
            if callable(stats_fn):
                stats[name] = stats_fn()
        return stats

    def session(self, record: bool = False) -> "AdblockEngine":
        """A thin mutable consultation layer over this snapshot."""
        return AdblockEngine(record=record, snapshot=self)


class AdblockEngine:
    """ABP configured with blocking lists and exception (whitelist) lists.

    The default configuration the paper studies is::

        engine = AdblockEngine()
        engine.subscribe(easylist)          # blocking
        engine.subscribe(acceptable_ads)    # the whitelist

    Each list contributes its blocking filters, exception filters, and
    element filters; the engine resolves interactions between them.

    The engine is split into two layers.  The *compiled* layer —
    indices, element filters, list map, epoch, privilege memo — can be
    frozen into an :class:`EngineSnapshot` with :meth:`freeze` and
    shared between sessions; ``AdblockEngine(snapshot=snap)`` (or
    ``snap.session()``) builds a new session over an existing snapshot
    without recompiling anything.  The *session* layer is what remains
    mutable: the ``recording`` flag and the activation log.  A frozen
    engine (and every snapshot session) rejects :meth:`subscribe` with
    :class:`FrozenEngineError` — subscription changes require building
    a fresh snapshot, which is exactly the atomic-swap discipline the
    serving daemon's hot-reload relies on.
    """

    #: Upper bound on memoised page-privilege entries; the cache is
    #: cleared (not evicted) when full, which keeps the bookkeeping off
    #: the hot path.  A survey visits each domain once, so in practice
    #: the cap is never reached — but a long-lived serving daemon can
    #: reach it, so every wipe is counted under
    #: ``filters.engine.privilege_cache_clears``.
    PRIVILEGE_CACHE_MAX = 4096

    def __init__(self, record: bool = False, *,
                 snapshot: EngineSnapshot | None = None) -> None:
        if snapshot is None:
            self._blocking = FilterIndex()
            self._exceptions = FilterIndex()
            self._element_hide: list[tuple[str, ElementFilter]] = []
            self._element_exceptions: list[tuple[str, ElementFilter]] = []
            self._list_of_filter: dict[int, str] = {}
            self._lists: list[FilterList] = []
            # Memoised document_privileges match results, keyed by
            # (subscription epoch, page_url, page_host, sitekey).  The
            # epoch advances on every filter added, so stale entries can
            # never be served after a subscription change.
            self._subscription_epoch = 0
            self._privilege_cache: dict[
                tuple, tuple[bool, bool, tuple[RequestFilter, ...]]] = {}
            self._snapshot: EngineSnapshot | None = None
        else:
            # A session: alias the snapshot's compiled structures (no
            # copies — that is the point) and share its privilege memo.
            self._blocking = snapshot.blocking
            self._exceptions = snapshot.exceptions
            self._element_hide = snapshot.element_hide
            self._element_exceptions = snapshot.element_exceptions
            self._list_of_filter = snapshot._list_of_filter
            self._lists = list(snapshot.lists)
            self._subscription_epoch = snapshot.epoch
            self._privilege_cache = snapshot._privilege_cache
            self._snapshot = snapshot
        self.recording = record
        self.activations: list[Activation] = []

    # -- subscription management -------------------------------------

    @property
    def frozen(self) -> bool:
        """True once the compiled layer is sealed (snapshot exists)."""
        return self._snapshot is not None

    def freeze(self) -> EngineSnapshot:
        """Seal the compiled layer and return it as a shareable snapshot.

        Freezing is idempotent — repeated calls return the same
        snapshot.  After freezing, :meth:`subscribe` raises
        :class:`FrozenEngineError`; the engine itself keeps working as
        a session over its own snapshot.

        Freezing is also where the keyword indexes are *compiled*: the
        mutable :class:`FilterIndex` pair becomes a pair of read-only
        :class:`~repro.filters.compiled.index.CompiledFilterIndex`
        (packed keyword automaton + per-content-type partitions of the
        buckets and the literal-gated fallback), and the engine rebinds
        to them so its own probes take the compiled hot path too.
        Verdicts, activations and their order are unchanged: a typed
        probe drops only filters that cannot match the request.
        """
        if self._snapshot is None:
            # Imported here, not at module level: the compiled package's
            # artifact module imports EngineSnapshot from this module.
            from repro.filters.compiled.index import CompiledFilterIndex
            if isinstance(self._blocking, FilterIndex):
                self._blocking = CompiledFilterIndex.compile(
                    self._blocking, name="blocking")
            if isinstance(self._exceptions, FilterIndex):
                self._exceptions = CompiledFilterIndex.compile(
                    self._exceptions, name="exceptions")
            self._snapshot = EngineSnapshot(
                blocking=self._blocking,
                exceptions=self._exceptions,
                element_hide=self._element_hide,
                element_exceptions=self._element_exceptions,
                lists=tuple(self._lists),
                list_of_filter=self._list_of_filter,
                epoch=self._subscription_epoch,
            )
            # Adopt the snapshot's memo so the engine and its sessions
            # share one long-lived cache (the engine's own memo was
            # keyed on the same epoch, but starts empty post-freeze to
            # keep ownership in one place).
            self._snapshot._privilege_cache.update(self._privilege_cache)
            self._privilege_cache = self._snapshot._privilege_cache
        return self._snapshot

    def subscribe(self, filter_list: FilterList) -> None:
        """Add every filter of ``filter_list`` to the engine."""
        if self._snapshot is not None:
            raise FrozenEngineError(
                "engine is frozen: build a new EngineSnapshot instead "
                "of subscribing")
        self._lists.append(filter_list)
        name = filter_list.name
        for flt in filter_list.filters:
            self._add_filter(flt, name)

    def _add_filter(self, flt: RequestFilter | ElementFilter,
                    list_name: str) -> None:
        self._subscription_epoch += 1
        if self._privilege_cache:
            self._privilege_cache.clear()
        self._list_of_filter[id(flt)] = list_name
        if isinstance(flt, RequestFilter):
            if flt.is_exception:
                self._exceptions.add(flt)
            else:
                self._blocking.add(flt)
        else:
            if flt.is_exception:
                self._element_exceptions.append((list_name, flt))
            else:
                self._element_hide.append((list_name, flt))

    @property
    def subscriptions(self) -> tuple[FilterList, ...]:
        return tuple(self._lists)

    @property
    def subscription_epoch(self) -> int:
        """The compiled state's version: advances on every filter added."""
        return self._subscription_epoch

    def list_name_for(self, flt: RequestFilter | ElementFilter) -> str:
        return self._list_of_filter.get(id(flt), "?")

    # -- recording -----------------------------------------------------

    def clear_activations(self) -> None:
        self.activations.clear()

    def _record(self, activation: Activation) -> None:
        if self.recording:
            self.activations.append(activation)

    # -- document-level privileges --------------------------------------

    def document_privileges(
        self, page_url: str, page_host: str, *, sitekey: str | None = None
    ) -> DocumentPrivileges:
        """Privileges the page itself gets from ``$document``/``$elemhide``.

        ``sitekey`` is the (already signature-verified) public key the
        server presented, if any; sitekey exception filters only activate
        when it matches one of their keys.

        The two exception-index scans are memoised per
        ``(subscription epoch, page_url, page_host, sitekey)`` — the
        crawler re-derives the same page's privileges for every request
        on it, and the answer cannot change unless the subscriptions
        do.  Activations are *not* cached: every call records the
        granted filters exactly as an uncached scan would.
        """
        cache_key = (self._subscription_epoch, page_url, page_host, sitekey)
        cached = self._privilege_cache.get(cache_key)
        if cached is None:
            allow_all = False
            disable_elemhide = False
            granted_list: list[RequestFilter] = []
            for flt in self._exceptions.match_all(
                page_url, ContentType.DOCUMENT, page_host, page_host,
                sitekey=sitekey,
            ):
                allow_all = True
                granted_list.append(flt)
            for flt in self._exceptions.match_all(
                page_url, ContentType.ELEMHIDE, page_host, page_host,
                sitekey=sitekey,
            ):
                disable_elemhide = True
                if flt not in granted_list:
                    granted_list.append(flt)
            granted = tuple(granted_list)
            if len(self._privilege_cache) >= self.PRIVILEGE_CACHE_MAX:
                # A full wipe (not an eviction) — cheap, but it resets
                # hit rates for *every* page, which matters once a
                # long-lived daemon shares this memo across requests.
                # Never silent: each wipe is counted.
                self._privilege_cache.clear()
                if OBS.enabled:
                    OBS.registry.counter(
                        "filters.engine.privilege_cache_clears").inc()
            self._privilege_cache[cache_key] = (allow_all, disable_elemhide,
                                                granted)
        else:
            allow_all, disable_elemhide, granted = cached
            if OBS.enabled:
                OBS.registry.counter(
                    "filters.engine.privilege_cache_hits").inc()
        for flt in granted:
            self._record(Activation(
                filter_text=flt.text,
                list_name=self.list_name_for(flt),
                page_host=page_host,
                target=page_url,
                kind="document",
                is_exception=True,
            ))
        if OBS.enabled:
            OBS.registry.counter("filters.engine.document_checks").inc()
            if granted:
                OBS.registry.counter(
                    "filters.engine.privileges_granted").inc(len(granted))
        return DocumentPrivileges(
            allow_all=allow_all,
            disable_elemhide=disable_elemhide,
            granted_by=granted,
        )

    # -- request decisions ----------------------------------------------

    def check_request(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        request_host: str,
        *,
        privileges: DocumentPrivileges | None = None,
        sitekey: str | None = None,
    ) -> RequestDecision:
        """Decide one request; records all activations when instrumented."""
        if privileges is not None and privileges.allow_all:
            if OBS.enabled:
                OBS.registry.counter("filters.engine.verdicts",
                                     verdict="allow",
                                     via="document-privilege").inc()
            return RequestDecision(verdict=Verdict.ALLOW)

        # ``$donottrack`` filters only steer the DNT header (see
        # :meth:`should_send_dnt`); they never block or allow content.
        blocking = tuple(
            flt for flt in self._blocking.match_all(
                url, content_type, page_host, request_host)
            if not flt.options.donottrack)
        exceptions = tuple(
            flt for flt in self._exceptions.match_all(
                url, content_type, page_host, request_host,
                sitekey=sitekey)
            if not flt.options.donottrack)

        for flt in blocking:
            self._record(Activation(
                filter_text=flt.text,
                list_name=self.list_name_for(flt),
                page_host=page_host,
                target=url,
                kind="request",
                is_exception=False,
            ))
        for flt in exceptions:
            self._record(Activation(
                filter_text=flt.text,
                list_name=self.list_name_for(flt),
                page_host=page_host,
                target=url,
                kind="request",
                is_exception=True,
                needless=not blocking,
            ))

        if exceptions:
            verdict = Verdict.ALLOW
        elif blocking:
            verdict = Verdict.BLOCK
        else:
            verdict = Verdict.NO_MATCH
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("filters.engine.verdicts",
                        verdict=verdict.value, via="match").inc()
            if exceptions and not blocking:
                # The paper's "needless activations": the whitelist fired
                # with nothing to override.
                reg.counter("filters.engine.needless_activations").inc(
                    len(exceptions))
        if verdict is Verdict.NO_MATCH:
            return RequestDecision(Verdict.NO_MATCH)
        return RequestDecision(verdict, blocking, exceptions)

    # -- element hiding ---------------------------------------------------

    def hidden_elements(
        self,
        elements: Iterable["Element"],
        page_host: str,
        *,
        privileges: DocumentPrivileges | None = None,
    ) -> list["Element"]:
        """Which of ``elements`` get hidden on a page at ``page_host``.

        An element is hidden when some element-hiding filter applies on
        the domain and matches it, and no element exception (with a
        selector that also matches it) applies on the domain.
        """
        if privileges is not None and (
                privileges.allow_all or privileges.disable_elemhide):
            return []
        hidden: list["Element"] = []
        active_exceptions = [
            (name, flt) for name, flt in self._element_exceptions
            if flt.applies_on_domain(page_host)
        ]
        for element in elements:
            hider = self._find_hider(element, page_host)
            if hider is None:
                continue
            list_name, flt = hider
            excepted = False
            for exc_name, exc in active_exceptions:
                if exc.selector.matches(element):
                    excepted = True
                    self._record(Activation(
                        filter_text=exc.text,
                        list_name=exc_name,
                        page_host=page_host,
                        target=exc.selector_text,
                        kind="element",
                        is_exception=True,
                    ))
                    break
            self._record(Activation(
                filter_text=flt.text,
                list_name=list_name,
                page_host=page_host,
                target=flt.selector_text,
                kind="element",
                is_exception=False,
            ))
            if not excepted:
                hidden.append(element)
        return hidden

    def _find_hider(
        self, element: "Element", page_host: str
    ) -> tuple[str, ElementFilter] | None:
        for name, flt in self._element_hide:
            if flt.applies_on_domain(page_host) and flt.selector.matches(element):
                return name, flt
        return None

    def elemhide_stylesheet(
        self,
        page_host: str,
        *,
        privileges: DocumentPrivileges | None = None,
    ) -> str:
        """The CSS a real ABP would inject on a page at ``page_host``.

        Every element-hiding selector applicable on the domain (and not
        cancelled by an identical-selector element exception) collapses
        to ``display: none !important`` — the extension's actual hiding
        mechanism.  Pages holding ``$elemhide``/``$document`` privileges
        get an empty stylesheet.
        """
        if privileges is not None and (
                privileges.allow_all or privileges.disable_elemhide):
            return ""
        excepted = {
            flt.selector_text
            for _, flt in self._element_exceptions
            if flt.applies_on_domain(page_host)
        }
        selectors = []
        seen: set[str] = set()
        for _, flt in self._element_hide:
            if not flt.applies_on_domain(page_host):
                continue
            text = flt.selector_text
            if text in excepted or text in seen:
                continue
            seen.add(text)
            selectors.append(text)
        if not selectors:
            return ""
        return (",\n".join(selectors)
                + " { display: none !important; }")

    # -- Do-Not-Track (the $donottrack option) ---------------------------

    def should_send_dnt(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        request_host: str,
    ) -> bool:
        """Should a DNT header accompany this request?

        Appendix A.4: a matching ``$donottrack`` filter asks the browser
        to send ``DNT: 1``, "as long as there is no matching exception
        rule with a donottrack option on the same page."
        """
        requested = any(
            flt.options.donottrack
            and flt.matches(url, content_type, page_host, request_host)
            for flt in self._blocking
        )
        if not requested:
            return False
        return not any(
            flt.options.donottrack
            and flt.matches(url, content_type, page_host, request_host)
            for flt in self._exceptions
        )
