"""repro.parallel — deterministic shared-nothing parallel execution.

The survey crawl is embarrassingly parallel per target, but naive
parallelism would destroy the repo's core guarantee: byte-identical
results for a given seed.  This subpackage provides parallelism that
*keeps* the guarantee:

* :mod:`repro.parallel.rng` — pure per-unit RNG derivation, so no unit's
  randomness depends on execution order;
* :mod:`repro.parallel.caches` — a registry of process-local
  ``lru_cache`` tables cleared across ``fork`` (bounded per-worker
  memory, per-worker cache statistics);
* :mod:`repro.parallel.leases` — bounded work leases and the
  dispatcher-side :class:`~repro.parallel.leases.LeaseLedger`;
* :mod:`repro.parallel.supervisor` — worker lifecycle: spawn, heartbeat
  deadlines, exit reaping, restart budget, deterministic
  :class:`~repro.parallel.supervisor.WorkerCrashInjector`;
* :mod:`repro.parallel.scheduler` — the survey executor: inline at one
  worker, supervised work stealing across forked workers otherwise,
  with lease recovery from dead/wedged workers, poison-unit quarantine,
  shard journals that merge into the standard checkpoint format, and
  streaming in-order flush with backpressure;
* :mod:`repro.parallel.survey` — ``run_sharded_survey``, an alias of
  the scheduler kept for tooling that resolves the old name.

Import note: this ``__init__`` re-exports only the dependency-free core
(rng, caches, leases, supervisor).  :mod:`repro.parallel.scheduler`
imports the web and state layers — and those layers import
:mod:`repro.parallel.caches` — so the executor is imported explicitly
(``from repro.parallel.scheduler import run_stealing_survey``) to keep
the import graph acyclic.
"""

from repro.parallel.caches import (
    process_cache_stats,
    register_process_cache,
    registered_caches,
    reset_process_caches,
)
from repro.parallel.leases import Lease, LeaseLedger, generate_leases
from repro.parallel.rng import derive_rng, derive_seed
from repro.parallel.supervisor import (
    POISON_EXIT_CODE,
    Supervisor,
    WorkerCrashInjector,
    WorkerHandle,
)

__all__ = [
    "derive_seed",
    "derive_rng",
    "register_process_cache",
    "reset_process_caches",
    "registered_caches",
    "process_cache_stats",
    "Lease",
    "LeaseLedger",
    "generate_leases",
    "Supervisor",
    "WorkerHandle",
    "WorkerCrashInjector",
    "POISON_EXIT_CODE",
]
