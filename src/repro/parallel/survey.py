"""``run_sharded_survey``: another name for the survey executor.

The survey has one executor,
:func:`repro.parallel.scheduler.run_stealing_survey`.  This module binds
it under the name ``run_sharded_survey`` as a plain alias, not a second
code path, because tooling outside the package (the per-layer benchmark
in ``perfbench/layers.py``) resolves the executor under that name.
"""

from repro.parallel.scheduler import run_stealing_survey

__all__ = ["run_sharded_survey"]

run_sharded_survey = run_stealing_survey
