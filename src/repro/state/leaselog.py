"""The lease log: a supervision side-journal for work-stealing runs.

The main checkpoint journal (:mod:`repro.state.checkpoint`) records
*results* — and results are defined to be byte-identical for every
worker count and every kill schedule, so supervision events (which
worker held which lease, which unit killed whom) must never appear in
it.  They still need durability: a unit that has already killed one
worker must keep its strike across a *parent* crash, or a resumed run
would feed the same poison unit two fresh workers all over again.

The :class:`LeaseLog` is that side channel.  It is a standard
:class:`~repro.state.journal.RunJournal` (checksummed, torn-tail
tolerant) at ``<checkpoint>.leases`` holding three record kinds:

* ``lease-grant`` — lease id, worker slot/incarnation, unit indices;
* ``lease-revoke`` — lease id, the revocation reason, the suspect
  unit's global index and its strike count so far;
* ``quarantine`` — the unit index retired as poisoned.

On resume, :func:`read_lease_strikes` replays the log and returns the
per-unit strike counts and already-quarantined units for one scope, so
the scheduler starts exactly as suspicious as the crashed run ended.
The log is deleted when its scope's scheduling completes — a finished
checkpoint carries no supervision residue, keeping it byte-identical
to a one-worker run's.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.state.journal import JournalError, RunJournal, replay_journal

__all__ = ["LeaseLog", "discard_lease_log", "lease_log_path",
           "read_lease_strikes"]

_SUFFIX = ".leases"


def lease_log_path(checkpoint_path: str) -> str:
    """Where a checkpointed steal run journals supervision events."""
    return checkpoint_path + _SUFFIX


def read_lease_strikes(checkpoint_path: str,
                       scope: str) -> tuple[dict[int, int], set[int]]:
    """Replay a leftover lease log: ``(strikes, quarantined)`` for
    ``scope``.

    ``strikes`` maps global unit index to how many workers that unit
    has killed; ``quarantined`` lists units already retired as
    poisoned.  A missing or unreadable (crash-mangled beyond the torn
    tail) log yields empty state — the run merely rediscovers any
    poison the hard way, deterministically.
    """
    path = lease_log_path(checkpoint_path)
    strikes: dict[int, int] = {}
    quarantined: set[int] = set()
    if not os.path.exists(path):
        return strikes, quarantined
    try:
        records, _truncated = replay_journal(path)
    except JournalError:
        return strikes, quarantined
    for record in records:
        if record.get("scope") != scope:
            continue
        kind = record.get("kind")
        if kind == "lease-revoke" and record.get("suspect") is not None:
            suspect = record["suspect"]
            strikes[suspect] = max(strikes.get(suspect, 0),
                                   record.get("strikes", 0))
        elif kind == "quarantine":
            quarantined.add(record["index"])
    return strikes, quarantined


def discard_lease_log(checkpoint_path: str, scope: str) -> None:
    """Delete a leftover lease log iff it belongs to ``scope``.

    A resumed pass that restores every unit from the checkpoint never
    opens (and so never removes) a lease log of its own, but its
    crashed predecessor may have left one.  That file is either the
    same scope's — safe to clear, its strikes have nothing left to
    protect — or a *later* pass's, whose strikes must survive until
    that pass replays them; the journal header's scope tells the two
    apart.  An unreadable log is removed either way: no pass could
    replay it.
    """
    path = lease_log_path(checkpoint_path)
    if not os.path.exists(path):
        return
    try:
        records, _truncated = replay_journal(path)
        owner = records[0].get("meta", {}).get("scope")
    except JournalError:
        owner = scope
    if owner == scope:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


class LeaseLog:
    """An open, appendable lease log for one scheduling pass.

    Create with :meth:`start`; the file is truncated (prior state must
    already have been folded in via :func:`read_lease_strikes`).  All
    appends carry the scope so two sequential survey passes sharing one
    checkpoint path never read each other's events.
    """

    def __init__(self, journal: RunJournal, scope: str) -> None:
        self._journal = journal
        self._scope = scope

    @classmethod
    def start(cls, checkpoint_path: str, scope: str) -> "LeaseLog":
        journal = RunJournal.create(lease_log_path(checkpoint_path),
                                    {"scope": scope})
        return cls(journal, scope)

    @property
    def path(self) -> str:
        return self._journal.path

    def grant(self, lease_id: int, worker: int, incarnation: int,
              indices: Iterable[int]) -> None:
        self._journal.append({"kind": "lease-grant", "scope": self._scope,
                              "lease": lease_id, "worker": worker,
                              "incarnation": incarnation,
                              "indices": list(indices)})

    def revoke(self, lease_id: int, *, reason: str,
               suspect: int | None, strikes: int) -> None:
        self._journal.append({"kind": "lease-revoke", "scope": self._scope,
                              "lease": lease_id, "reason": reason,
                              "suspect": suspect, "strikes": strikes})
        self._journal.sync()  # a strike must survive a parent crash

    def quarantine(self, index: int) -> None:
        self._journal.append({"kind": "quarantine", "scope": self._scope,
                              "index": index})
        self._journal.sync()

    def close(self) -> None:
        self._journal.close()

    def remove(self) -> None:
        """Close and delete the log (scope scheduling completed)."""
        self.close()
        try:
            os.remove(self._journal.path)
        except FileNotFoundError:
            pass
