"""Bounded work leases for the supervised work-stealing scheduler.

Pre-dealing the whole unit list before any worker starts would leave a
straggler — or a dead worker — owning a fixed 1/N of the run forever.
The work-stealing scheduler (:mod:`repro.parallel.scheduler`) instead
hands out **leases**: small
batches of globally-indexed units granted to one worker at a time.  A
lease is the unit of both load balancing (a slow worker simply claims
fewer leases) and failure recovery (a dead worker forfeits exactly its
outstanding lease, nothing more).

Two pieces live here:

* :func:`generate_leases` — the pure batching function, shared by the
  scheduler's inline path and its deterministic makespan model;
* :class:`LeaseLedger` — the dispatcher's bookkeeping of which lease is
  where, which of its units have reported results, and what a
  revocation must therefore requeue.

Both are deliberately free of process machinery so they can be tested
(and reasoned about) without forking anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["Lease", "generate_leases", "LeaseLedger"]


@dataclass(frozen=True, slots=True)
class Lease:
    """A bounded batch of globally-indexed units granted to one worker."""

    lease_id: int
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def generate_leases(indices: Sequence[int],
                    lease_size: int) -> list[Lease]:
    """Chunk ``indices`` into consecutive leases of ``lease_size``.

    Leases preserve the input order — the scheduler always feeds the
    lowest pending indices first, so grants stay close to the in-order
    flush frontier and the reorder buffer stays small.  Zero items mean
    zero leases, for any ``lease_size``:

    >>> [lease.indices for lease in generate_leases([0, 1, 2, 3, 4], 2)]
    [(0, 1), (2, 3), (4,)]
    >>> generate_leases([], 3)
    []
    >>> generate_leases([], 0)
    []
    """
    if not indices:
        return []
    if lease_size < 1:
        raise ValueError(f"lease_size must be >= 1, got {lease_size}")
    return [Lease(lease_id, tuple(indices[start:start + lease_size]))
            for lease_id, start in enumerate(
                range(0, len(indices), lease_size))]


@dataclass(slots=True)
class _OpenLease:
    """Dispatcher-side state of one granted, not-yet-finished lease."""

    lease: Lease
    worker: int
    done: set[int] = field(default_factory=set)

    @property
    def incomplete(self) -> tuple[int, ...]:
        return tuple(index for index in self.lease.indices
                     if index not in self.done)


class LeaseLedger:
    """Tracks granted leases, their per-unit progress, and revocations.

    The ledger is the scheduler's single source of truth for "which
    units are in flight where".  It never touches processes or pipes:
    the scheduler reports events (grant, unit result, lease finished,
    worker death) and the ledger answers the recovery question — what
    must be requeued, and which unit is the prime suspect for having
    killed the worker.

    >>> ledger = LeaseLedger()
    >>> lease = ledger.grant(worker=0, indices=(4, 5, 6))
    >>> ledger.complete(lease.lease_id, 4)
    >>> ledger.revoke(lease.lease_id)
    (5, 6)
    >>> ledger.outstanding
    0
    """

    def __init__(self) -> None:
        self._next_id = 0
        self._open: dict[int, _OpenLease] = {}

    @property
    def outstanding(self) -> int:
        """Number of granted leases that have not finished or been
        revoked."""
        return len(self._open)

    @property
    def in_flight(self) -> int:
        """Total units granted but not yet reported back."""
        return sum(len(entry.incomplete) for entry in self._open.values())

    def grant(self, worker: int, indices: Iterable[int]) -> Lease:
        """Open a new lease of ``indices`` for ``worker``."""
        lease = Lease(self._next_id, tuple(indices))
        if not lease.indices:
            raise ValueError("cannot grant an empty lease")
        self._next_id += 1
        self._open[lease.lease_id] = _OpenLease(lease, worker)
        return lease

    def complete(self, lease_id: int, index: int) -> None:
        """Record one unit result for an open lease.

        Results from unknown leases are ignored: a lease revoked after
        a heartbeat timeout may, in principle, race one last buffered
        message home — the scheduler has already requeued the unit, and
        the deterministic re-crawl produces the identical payload.
        """
        entry = self._open.get(lease_id)
        if entry is not None:
            entry.done.add(index)

    def finish(self, lease_id: int) -> None:
        """Close a lease the worker reports fully done."""
        entry = self._open.pop(lease_id, None)
        if entry is not None and entry.incomplete:
            raise ValueError(
                f"lease {lease_id} finished with incomplete units "
                f"{entry.incomplete}")

    def revoke(self, lease_id: int) -> tuple[int, ...]:
        """Withdraw a lease from a dead worker; return its unfinished
        units, lowest global index first (the first one is the unit the
        worker died on — the quarantine suspect)."""
        entry = self._open.pop(lease_id, None)
        return entry.incomplete if entry is not None else ()

    def leases_of(self, worker: int) -> tuple[int, ...]:
        """IDs of the open leases currently held by ``worker``."""
        return tuple(lease_id
                     for lease_id, entry in self._open.items()
                     if entry.worker == worker)
