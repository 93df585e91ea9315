"""Deterministic per-unit RNG derivation for shared-nothing execution.

One ``random.Random`` threaded through a crawl would make each target's
backoff jitter depend on how much entropy every *earlier* target
consumed — a coupling that parallel execution cannot reproduce, since
workers interleave their draws nondeterministically.

Instead, every unit of work derives an independent RNG from a root seed
plus its own identity (purpose label, domain, rank);
:meth:`repro.web.crawler.Crawler.visit_target` does this for every
visit.  Derivation is a pure function — SHA-256 over a canonical
encoding of the parts — so any worker, in any process, at any time,
reconstructs the identical stream for a given unit.  Results are
therefore byte-identical regardless of worker count or scheduling
order.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_seed", "derive_rng"]

#: Separates encoded parts so ("ab", "c") and ("a", "bc") derive
#: different seeds.
_SEPARATOR = b"\x1f"


def derive_seed(root: int, *parts: object) -> int:
    """Derive a 128-bit integer seed from a root seed and identity parts.

    Pure and stable across processes and Python invocations (no reliance
    on ``hash()``, which is salted per-process).

    >>> derive_seed(7, "example.org", 12) == derive_seed(7, "example.org", 12)
    True
    >>> derive_seed(7, "example.org", 12) == derive_seed(7, "example.org", 13)
    False
    """
    digest = hashlib.sha256(
        _SEPARATOR.join(str(part).encode("utf-8") for part in (root, *parts))
    ).digest()
    return int.from_bytes(digest[:16], "big")


def derive_rng(root: int, *parts: object) -> random.Random:
    """A fresh ``random.Random`` seeded from :func:`derive_seed`.

    >>> a = derive_rng(7, "jitter", "example.org")
    >>> b = derive_rng(7, "jitter", "example.org")
    >>> [a.random() for _ in range(3)] == [b.random() for _ in range(3)]
    True
    """
    return random.Random(derive_seed(root, *parts))
