"""The compiled, frozen form of :class:`~repro.filters.index.FilterIndex`.

``FilterIndex`` is the mutable build-time structure: it chooses keywords
as filters arrive and grows dict buckets.  Once an engine freezes
(:meth:`repro.filters.engine.AdblockEngine.freeze`), the index is
compiled into this read-only form, which hands the matcher as few
filters as it can without ever dropping one that could match:

* **one C-level token pass** — the probe lowercases and splits the URL
  bytes with one 256-byte ``translate`` and one ``split``, then
  intersects the tokens with the keyword set.  No regex tokeniser, no
  cache, nothing to warm after ``fork``.
* **per-content-type partitions** — every request is matched for one
  :class:`~repro.filters.options.ContentType`, and a filter whose type
  mask lacks that bit can never match it.  At construction the index
  splits every bucket and the fallback once per content type (a bucket
  whose filters all carry the bit is shared, not copied), so a typed
  probe never offers the matcher a filter of the wrong type.
* **an exact literal gate on the fallback** — a fallback filter whose
  raw ``/.../`` regex is a plain ASCII literal (``/pop-zone-2/``) can
  only match a URL that contains that literal.  For ASCII URLs the typed
  fallback keeps such a filter only when its (case-folded, unless
  ``$match-case``) literal occurs in the (lowercased) URL, which is
  exactly when its regex matches.  Non-ASCII URLs skip the gate, since
  ``IGNORECASE`` folds some non-ASCII code points onto ASCII letters.

The candidate *order* is the legacy index's: distinct URL tokens in
first-occurrence order select buckets (bucket contents in insertion
order), then the fallback, always last.  A typed probe yields a
subsequence of the untyped one that still holds every filter that
matches; ``candidates(url)`` without a content type is exactly the
legacy sequence, which the differential-fuzz suite
(``tests/filters/test_compiled_fuzz.py``) holds against both the
legacy index and the packed
:class:`~repro.filters.compiled.automaton.KeywordAutomaton`, compiled
alongside as the index's serialized identity and reference matcher.
``tests/filters/test_typed_candidates.py`` holds the typed
``match_all``/``match_first`` against a linear scan of every filter.

Non-ASCII URLs take a conservative detour through the legacy string
tokeniser: ``str.lower()`` can fold non-ASCII code points *into* ASCII
(``'K'.lower() == 'k'``), so byte-level lowercasing of such URLs
could miss a bucket and break the completeness guarantee.

>>> from repro.filters.index import FilterIndex
>>> from repro.filters.parser import parse_filter
>>> legacy = FilterIndex([parse_filter("||adzerk.net^$script"),
...                       parse_filter("/banner[0-9]+/"),
...                       parse_filter("/pop-zone/$image")])
>>> compiled = CompiledFilterIndex.compile(legacy)
>>> [f.text for f in compiled.candidates("http://adzerk.net/x")]
['||adzerk.net^$script', '/banner[0-9]+/', '/pop-zone/$image']
>>> [f.text for f in compiled.candidates("http://adzerk.net/x",
...                                      ContentType.IMAGE)]
['/banner[0-9]+/']
>>> [f.text for f in compiled.candidates("http://x.example/POP-ZONE/",
...                                      ContentType.IMAGE)]
['/banner[0-9]+/', '/pop-zone/$image']
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterator, Sequence

try:
    from re import _parser as sre_parse      # Python >= 3.11
except ImportError:                          # pragma: no cover - 3.10
    import sre_parse

from repro.filters.compiled.automaton import TOKEN_TABLE, KeywordAutomaton
from repro.filters.index import FilterIndex, _url_tokens
from repro.filters.options import ContentType
from repro.filters.parser import RequestFilter
from repro.obs import OBS

__all__ = ["CompiledFilterIndex"]

#: Characters that make a regex more than a run of ``LITERAL`` ops
#: (``sre_parse.SPECIAL_CHARS``); a source free of them is a literal.
_REGEX_SPECIAL = re.compile(r"[.\\\[{()*+?^$|]")

#: The single-bit content types a partition is built for.
_TYPE_BITS: tuple[int, ...] = tuple(int(member) for member in ContentType)


class _MultiCandidates:
    """A reusable, lazily chained multi-bucket candidate sequence.

    The fallback bucket can hold hundreds of filters, so materialising
    ``bucket + fallback`` into a tuple would copy hundreds of pointers
    per probe.  This object keeps the hit buckets plus the fallback as
    a tuple of tuples and iterates them back-to-back with C-level
    ``chain`` iteration — each ``__iter__`` call yields a fresh
    iterator, so callers may re-iterate it like a tuple.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: tuple[tuple[RequestFilter, ...], ...]) -> None:
        self._parts = parts

    def __iter__(self) -> Iterator[RequestFilter]:
        return chain.from_iterable(self._parts)

    def __len__(self) -> int:
        return sum(map(len, self._parts))


def _literal_needle(flt: RequestFilter) -> tuple[str, bool] | None:
    """``(needle, folded)`` when ``flt``'s regex is one ASCII literal.

    A raw ``/.../`` pattern that parses to ``LITERAL`` ops only matches
    a URL exactly when the literal is a substring of it.  ``folded``
    says the regex ignores case: the needle is then lowercased and must
    be looked up in the lowercased URL (exact for ASCII URLs only).
    """
    pattern = flt.pattern
    if pattern is None or not pattern.is_regex:
        return None
    regex = pattern.regex
    needle = regex.pattern
    if _REGEX_SPECIAL.search(needle) is not None:
        # Escapes (``/ads\.js/``) can still be literals; ask the
        # regex parser itself.
        ops = sre_parse.parse(needle, regex.flags)
        if any(op is not sre_parse.LITERAL for op, _ in ops):
            return None
        needle = "".join(chr(arg) for _, arg in ops)
    if not needle.isascii():
        return None
    folded = bool(regex.flags & re.IGNORECASE)
    return (needle.lower() if folded else needle), folded


class _Partition:
    """The filters of one content type: buckets, fallback, gate.

    ``buckets`` maps each keyword whose bucket holds a filter of this
    type to those filters (in bucket order); ``tail`` is the fallback's
    filters of this type.  ``gate`` is ``None`` when no filter in
    ``tail`` has a literal needle; otherwise it lists ``(needle,
    folded, filter)`` for every filter of ``tail`` in order, with an
    empty needle (always present) for the ungated ones.
    """

    __slots__ = ("buckets", "tail", "gate")

    def __init__(self, buckets: dict[bytes, tuple[RequestFilter, ...]],
                 tail: tuple[RequestFilter, ...],
                 gate: tuple[tuple[str, bool, RequestFilter], ...] | None
                 ) -> None:
        self.buckets = buckets
        self.tail = tail
        self.gate = gate

    def tail_for(self, url: str, ascii_url: bool
                 ) -> tuple[RequestFilter, ...]:
        """The fallback filters whose literal gate ``url`` passes."""
        gate = self.gate
        if gate is None or not ascii_url:
            return self.tail
        lowered = url.lower()
        return tuple([flt for needle, folded, flt in gate
                      if needle in (lowered if folded else url)])


def _build_partitions(
    keys: Sequence[bytes],
    buckets: Sequence[tuple[RequestFilter, ...]],
    fallback: tuple[RequestFilter, ...],
) -> dict[int, _Partition]:
    """One :class:`_Partition` per single-bit content type.

    Each filter's mask is read once.  A bucket whose filters share one
    mask is reused as-is by every type that mask covers (one C-level
    ``dict.update`` per mask and type); only mixed buckets are split.
    """
    typed: dict[int, dict[bytes, tuple[RequestFilter, ...]]] = {
        bit: {} for bit in _TYPE_BITS}
    uniform: dict[int, list[tuple[bytes, tuple[RequestFilter, ...]]]] = {}
    for key, bucket in zip(keys, buckets):
        masks = [flt.options.effective_mask_int() for flt in bucket]
        if not masks:
            continue
        if masks.count(masks[0]) == len(masks):
            uniform.setdefault(masks[0], []).append((key, bucket))
            continue
        for bit in _TYPE_BITS:
            kept = tuple([flt for flt, mask in zip(bucket, masks)
                          if mask & bit])
            if kept:
                typed[bit][key] = (bucket if len(kept) == len(bucket)
                                   else kept)
    for mask, pairs in uniform.items():
        for bit in _TYPE_BITS:
            if mask & bit:
                typed[bit].update(pairs)

    fallback_masks = [flt.options.effective_mask_int() for flt in fallback]
    entries = [(*(_literal_needle(flt) or ("", True)), flt)
               for flt in fallback]
    partitions = {}
    for bit in _TYPE_BITS:
        gate = tuple(entry for entry, mask in zip(entries, fallback_masks)
                     if mask & bit)
        tail = tuple(flt for _, _, flt in gate)
        gated = any(needle for needle, _, _ in gate)
        partitions[bit] = _Partition(typed[bit], tail,
                                     gate if gated else None)
    return partitions


def _sequence(parts: list[tuple[RequestFilter, ...]],
              tail: tuple[RequestFilter, ...]) -> Sequence[RequestFilter]:
    """Hit buckets (in probe order) followed by ``tail``."""
    if not parts:
        return tail
    if len(parts) == 1 and not tail:
        return parts[0]
    parts.append(tail)
    return _MultiCandidates(tuple(parts))


class CompiledFilterIndex:
    """Read-only keyword index: packed automaton + typed partitions.

    Construction goes through :meth:`compile` (from a built
    ``FilterIndex``) or :meth:`from_parts` (the artifact-load path);
    both build the per-content-type partitions.  The probe surface
    mirrors ``FilterIndex`` — ``candidates``, ``match_first``,
    ``match_all``, iteration, ``len`` — so engines and sessions use
    either interchangeably; ``candidates`` returns a reusable sequence
    rather than a one-shot generator.
    """

    __slots__ = ("name", "automaton", "_keywords", "_buckets", "_fallback",
                 "_raw", "_untyped", "_partitions", "_bucket_of",
                 "_count")

    def __init__(self, *, name: str,
                 keywords: tuple[str, ...],
                 buckets: tuple[tuple[RequestFilter, ...], ...],
                 fallback: tuple[RequestFilter, ...],
                 automaton: KeywordAutomaton) -> None:
        if len(keywords) != len(buckets):
            raise ValueError("one bucket per keyword required")
        self.name = name
        self.automaton = automaton
        self._keywords = keywords
        self._buckets = buckets
        self._fallback = fallback
        encoded = [keyword.encode("ascii") for keyword in keywords]
        self._raw = dict(zip(encoded, buckets))
        # Content types absent from ``_partitions`` (``None``, composite
        # masks) probe every bucket and the whole fallback.
        self._untyped = _Partition(self._raw, fallback, None)
        self._partitions = _build_partitions(encoded, buckets, fallback)
        self._bucket_of = {id(flt): kid
                           for kid, bucket in enumerate(buckets)
                           for flt in bucket}
        self._bucket_of.update((id(flt), -1) for flt in fallback)
        self._count = sum(map(len, buckets)) + len(fallback)

    # -- construction --------------------------------------------------

    @classmethod
    def compile(cls, index: FilterIndex,
                name: str = "index") -> "CompiledFilterIndex":
        """Compile a built ``FilterIndex`` (bucket order preserved)."""
        keywords = tuple(index._by_keyword)
        buckets = tuple(tuple(bucket)
                        for bucket in index._by_keyword.values())
        fallback = tuple(index._fallback)
        automaton = KeywordAutomaton.build(
            keyword.encode("ascii") for keyword in keywords)
        compiled = cls(name=name, keywords=keywords, buckets=buckets,
                       fallback=fallback, automaton=automaton)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("filters.index.automaton_builds",
                        index=name, source="compile").inc()
            reg.gauge("filters.index.automaton_states",
                      index=name).set(automaton.states)
        return compiled

    @classmethod
    def from_parts(cls, *, name: str, keywords: Sequence[str],
                   buckets: Sequence[Sequence[RequestFilter]],
                   fallback: Sequence[RequestFilter],
                   automaton: KeywordAutomaton) -> "CompiledFilterIndex":
        """Assemble from deserialized parts (no automaton rebuild)."""
        compiled = cls(name=name, keywords=tuple(keywords),
                       buckets=tuple(tuple(b) for b in buckets),
                       fallback=tuple(fallback), automaton=automaton)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("filters.index.automaton_builds",
                        index=name, source="artifact").inc()
            reg.gauge("filters.index.automaton_states",
                      index=name).set(automaton.states)
        return compiled

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RequestFilter]:
        for bucket in self._buckets:
            yield from bucket
        yield from self._fallback

    @property
    def keywords(self) -> tuple[str, ...]:
        return self._keywords

    @property
    def fallback(self) -> tuple[RequestFilter, ...]:
        return self._fallback

    def bucket_filters(self, keyword_id: int) -> tuple[RequestFilter, ...]:
        return self._buckets[keyword_id]

    def bucket_of(self, flt: RequestFilter) -> int:
        """Bucket id holding ``flt`` (``-1`` = fallback); serialization."""
        return self._bucket_of[id(flt)]

    def stats(self) -> dict[str, int]:
        """Size figures for health endpoints and the CLI."""
        return {"filters": self._count,
                "keywords": len(self._keywords),
                "fallback": len(self._fallback),
                **{f"automaton_{key}": value
                   for key, value in self.automaton.stats().items()
                   if key != "keywords"}}

    # -- probing -------------------------------------------------------

    def candidates(self, url: str, content_type: ContentType | None = None
                   ) -> Sequence[RequestFilter]:
        """Candidate filters for ``url``, as a reusable sequence.

        Without ``content_type`` (or with a composite mask) this is the
        legacy :meth:`FilterIndex.candidates` sequence.  With a single
        content type it is that sequence minus the filters that cannot
        match a request of that type: filters whose type mask lacks the
        bit, and gated fallback literals absent from the URL.  Every
        filter that matches is still yielded, in the same order.
        """
        if OBS.enabled:
            return self._instrumented_candidates(url, content_type)
        ascii_url = url.isascii()
        if ascii_url:
            toks = url.encode("ascii").translate(TOKEN_TABLE).split()
        else:
            toks = [token.encode("ascii") for token in _url_tokens(url)]
        part = self._partitions.get(content_type, self._untyped)
        raw = part.buckets
        tail = part.tail_for(url, ascii_url)
        hits = raw.keys() & toks
        if not hits:
            return tail
        if len(hits) == 1:
            # ``hits`` is a fresh set; pop() beats building an iterator
            # just to read the lone element.
            bucket = raw[hits.pop()]
            return _MultiCandidates((bucket, tail)) if tail else bucket
        parts = []
        for token in toks:
            if token in hits:
                hits.discard(token)
                parts.append(raw[token])
                if not hits:
                    break
        return _sequence(parts, tail)

    def _instrumented_candidates(self, url: str,
                                 content_type: ContentType | None
                                 ) -> Sequence[RequestFilter]:
        """:meth:`candidates` plus ``filters.index.*`` accounting.

        Returns the *identical* sequence as the fast path (same buckets,
        same order, same fallback gate).  ``bucket_hits`` and
        ``bucket_misses`` count distinct keyword-eligible tokens
        (length >= 3) present in / absent from the whole index;
        ``candidates_yielded`` and ``fallback_scanned`` count the
        filters the returned sequence actually holds.
        """
        ascii_url = url.isascii()
        if ascii_url:
            raw_tokens = url.encode("ascii").translate(TOKEN_TABLE).split()
            distinct = [token for token in dict.fromkeys(raw_tokens)
                        if len(token) >= 3]
        else:
            distinct = [token.encode("ascii") for token in _url_tokens(url)]
        part = self._partitions.get(content_type, self._untyped)
        raw = part.buckets
        tail = part.tail_for(url, ascii_url)
        indexed = self._raw
        hit_count = sum(1 for token in distinct if token in indexed)
        parts = [raw[token] for token in distinct if token in raw]
        reg = OBS.registry
        reg.counter("filters.index.probes").inc()
        reg.counter("filters.index.bucket_hits").inc(hit_count)
        reg.counter("filters.index.bucket_misses").inc(
            len(distinct) - hit_count)
        reg.counter("filters.index.candidates_yielded").inc(
            sum(map(len, parts)) + len(tail))
        if self._fallback:
            reg.counter("filters.index.fallback_scanned").inc(len(tail))
        return _sequence(parts, tail)

    # -- matching ------------------------------------------------------

    def match_first(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        request_host: str,
        *,
        sitekey: str | None = None,
    ) -> RequestFilter | None:
        """First matching filter, or ``None``."""
        for flt in self.candidates(url, content_type):
            if flt.matches(url, content_type, page_host, request_host,
                           sitekey=sitekey):
                return flt
        return None

    def match_all(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        request_host: str,
        *,
        sitekey: str | None = None,
    ) -> list[RequestFilter]:
        """Every matching filter (the survey records all activations)."""
        return [
            flt
            for flt in self.candidates(url, content_type)
            if flt.matches(url, content_type, page_host, request_host,
                           sitekey=sitekey)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CompiledFilterIndex({self.name!r}, "
                f"filters={self._count}, "
                f"keywords={len(self._keywords)}, "
                f"fallback={len(self._fallback)})")
