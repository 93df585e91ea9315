"""Acceptance: ``--workers N`` output is byte-identical for every N.

The survey executor's contract (see ``docs/PERFORMANCE.md``) is that
worker count is an execution detail, never a result parameter: outcome
projections, rendered crawl-health tables, metric exports, and the
checkpoint journal itself must come out byte-for-byte the same for
``--workers 1``, ``2``, and ``8`` — including when a crashed run is
resumed under a *different* worker count than it started with.
"""

import hashlib
import io
import json
import os

import pytest

from repro.cli import main
from repro.measurement.stats import section51_headline
from repro.measurement.survey import (SurveyConfig, _survey_fingerprint,
                                      run_survey)
from repro.obs import (JsonLinesExporter, MetricsRegistry, Tracer, observe,
                       span_records)
from repro.parallel.scheduler import list_shard_journals
from repro.parallel.supervisor import WorkerCrashInjector
from repro.reporting.tables import render_crawl_health
from repro.state import Checkpoint, lease_log_path
from repro.state.crashpoints import CrashInjector, SimulatedCrash, crashing
from repro.web.crawlstate import snapshot_outcome

#: Same adversarial shape as the crash-resume suite: 30% injected
#: faults exercise retries and rng-consuming backoff on every worker.
_BASE = dict(top_n=20, stratum_size=5, fault_rate=0.3, fault_seed=7)


def _config(workers, **overrides):
    return SurveyConfig(**_BASE, workers=workers, **overrides)


#: SHA-256 of ``_canonical`` for the unfaulted 20/5 survey as the
#: retired serial loop produced it; with no faults there is no jitter
#: to draw, so the shared-nothing executor must reproduce it exactly.
_ZERO_FAULT_DIGEST = (
    "d3dcd5e9540ff1b7230f7bc96599b44f6ca71c329fdb27b6fd4eb39225492478")


def _canonical(result) -> str:
    """Everything downstream consumers read, as one comparable string."""
    payload = {
        "with": {group: [snapshot_outcome(o) for o in outcomes]
                 for group, outcomes in result.outcomes.items()},
        "without": {group: [snapshot_outcome(o) for o in outcomes]
                    for group, outcomes
                    in result.outcomes_easylist_only.items()},
    }
    return "\n".join([
        json.dumps(payload, sort_keys=True),
        render_crawl_health(result.crawl_health()),
        repr(section51_headline(result.all_records())),
    ])


@pytest.fixture(scope="module")
def one_worker_baseline(history):
    """The ``--workers 1`` run every other worker count must match."""
    return _canonical(run_survey(history, _config(1)))


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [2, 8])
    def test_output_byte_identical(self, history, one_worker_baseline,
                                   workers):
        assert _canonical(run_survey(history, _config(workers))) == \
            one_worker_baseline

    def test_zero_fault_pool_matches_legacy_serial(self, history):
        """Unfaulted output at the default and at four workers matches
        the committed digest of the retired serial loop's output."""
        for workers in (1, 4):
            config = SurveyConfig(top_n=20, stratum_size=5,
                                  fault_rate=0.0, workers=workers)
            canonical = _canonical(run_survey(history, config))
            assert hashlib.sha256(canonical.encode()).hexdigest() == \
                _ZERO_FAULT_DIGEST

    @pytest.mark.parametrize("workers", [2, 8])
    def test_metrics_export_byte_identical(self, history, tmp_path,
                                           workers):
        def export(count, name):
            with observe(registry=MetricsRegistry()) as (registry, _):
                run_survey(history, _config(count))
                path = str(tmp_path / name)
                JsonLinesExporter(path).export(registry=registry)
            with open(path, "rb") as handle:
                return handle.read()

        assert export(workers, f"w{workers}.jsonl") == \
            export(1, f"w1-vs-{workers}.jsonl")

    def test_checkpoint_journal_byte_identical(self, history, tmp_path):
        def journal_bytes(workers, name):
            path = str(tmp_path / name)
            checkpoint = Checkpoint.start(path)
            try:
                run_survey(history, _config(workers),
                           checkpoint=checkpoint)
            finally:
                checkpoint.close()
            assert list_shard_journals(path) == []  # merged and removed
            with open(path, "rb") as handle:
                return handle.read()

        reference = journal_bytes(1, "w1.ckpt")
        assert journal_bytes(4, "w4.ckpt") == reference
        assert journal_bytes(8, "w8.ckpt") == reference


class TestTraceWorkerInvariance:
    """Pool mode keeps per-visit spans, and the merged trace is
    byte-identical for every worker count.

    Unit spans are timed on the per-unit simulated clock (deterministic
    by construction); the parent's own spans are timed on the tracer
    clock, so a deterministic counting clock is injected here — the
    number of parent-side clock reads is itself worker-count-invariant,
    which is part of what this asserts.
    """

    def _trace_bytes(self, history, tmp_path, workers, name):
        ticks = iter(range(1_000_000))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with observe(tracer=tracer):
            run_survey(history, _config(workers))
            path = str(tmp_path / name)
            JsonLinesExporter(path).export(tracer=tracer)
        with open(path, "rb") as handle:
            return handle.read()

    @pytest.mark.parametrize("workers", [2, 8])
    def test_trace_export_byte_identical(self, history, tmp_path,
                                         workers):
        assert self._trace_bytes(history, tmp_path, workers,
                                 f"w{workers}.jsonl") == \
            self._trace_bytes(history, tmp_path, 1,
                              f"w1-vs-{workers}.jsonl")

    def test_pooled_trace_contains_linked_visit_spans(self, history):
        with observe() as (_, tracer):
            run_survey(history, _config(4))
            records = span_records(tracer)
        visits = [r for r in records if r["name"] == "web.crawl.visit"]
        # 35 units x 2 engine configs; the PR-4 "spans are dropped in
        # pool mode" carve-out is gone.
        assert len(visits) == 70
        parallel_ids = {r["span_id"] for r in records
                        if r["name"] == "survey.crawl.parallel"}
        assert len(parallel_ids) == 2
        assert {v["parent_id"] for v in visits} == parallel_ids
        units = sorted(v["attrs"]["unit"] for v in visits)
        assert units == sorted(list(range(35)) * 2)
        # The worker transport tag never survives into the merged trace.
        assert all("worker" not in v for v in visits)
        ids = [r["span_id"] for r in records]
        assert len(set(ids)) == len(ids)


class TestResumeAcrossWorkerCounts:
    def _crash(self, history, path, at_step, workers):
        checkpoint = Checkpoint.start(path)
        try:
            with crashing(CrashInjector(at_step=at_step)):
                with pytest.raises(SimulatedCrash):
                    run_survey(history, _config(workers),
                               checkpoint=checkpoint)
        finally:
            checkpoint.close()

    @pytest.mark.parametrize("at_step", [10, 60])
    def test_resume_with_more_workers_identical(
            self, history, one_worker_baseline, tmp_path, at_step):
        """Crash a two-worker run mid-flush, finish it with eight."""
        path = str(tmp_path / "run.ckpt")
        self._crash(history, path, at_step, workers=2)
        # The crash interrupted shard journaling, so a leftover shard
        # file must exist for the resume to adopt.
        assert list_shard_journals(path)
        resumed = Checkpoint.resume(path)
        assert resumed.resumed
        try:
            result = run_survey(history, _config(8), checkpoint=resumed)
        finally:
            resumed.close()
        assert _canonical(result) == one_worker_baseline
        assert list_shard_journals(path) == []

    def test_resumed_journal_bytes_match_uninterrupted(self, history,
                                                       tmp_path):
        uninterrupted = str(tmp_path / "base.ckpt")
        checkpoint = Checkpoint.start(uninterrupted)
        try:
            run_survey(history, _config(2), checkpoint=checkpoint)
        finally:
            checkpoint.close()

        crashed = str(tmp_path / "crashed.ckpt")
        self._crash(history, crashed, at_step=10, workers=1)
        resumed = Checkpoint.resume(crashed)
        try:
            run_survey(history, _config(2), checkpoint=resumed)
        finally:
            resumed.close()

        with open(uninterrupted, "rb") as handle:
            expected = handle.read()
        with open(crashed, "rb") as handle:
            assert handle.read() == expected

    def test_corrupt_shard_journal_is_discarded_and_recrawled(
            self, history, one_worker_baseline, tmp_path):
        path = str(tmp_path / "run.ckpt")
        self._crash(history, path, at_step=10, workers=2)
        shard_paths = list_shard_journals(path)
        assert shard_paths
        for shard_path in shard_paths:
            with open(shard_path, "wb") as handle:
                handle.write(b"\x00 garbage, not a journal \x00")
        resumed = Checkpoint.resume(path)
        try:
            result = run_survey(history, _config(4), checkpoint=resumed)
        finally:
            resumed.close()
        assert _canonical(result) == one_worker_baseline
        assert list_shard_journals(path) == []


class TestStealSchedulerInvariance:
    """Results, exports, and finished checkpoints of the forked
    scheduler are byte-identical to the inline one-worker run's — for
    any worker count, lease size, and deterministic kill schedule."""

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_output_byte_identical(self, history, one_worker_baseline,
                                   workers):
        assert _canonical(run_survey(history, _config(workers))) \
            == one_worker_baseline

    def test_lease_size_is_an_execution_detail(self, history,
                                               one_worker_baseline):
        assert _canonical(run_survey(
            history, _config(3, lease_size=1))) == one_worker_baseline

    def test_kill_schedule_is_invisible_in_results(
            self, history, one_worker_baseline):
        injector = WorkerCrashInjector(kill_after={0: 2, 2: 5})
        assert _canonical(run_survey(
            history, _config(4, steal_crash_injector=injector))) \
            == one_worker_baseline

    def test_checkpoint_journal_byte_identical_across_schedulers(
            self, history, tmp_path):
        def journal_bytes(config, name):
            path = str(tmp_path / name)
            checkpoint = Checkpoint.start(path)
            try:
                run_survey(history, config, checkpoint=checkpoint)
            finally:
                checkpoint.close()
            # A clean finish leaves no supervision residue behind.
            assert list_shard_journals(path) == []
            assert not os.path.exists(lease_log_path(path))
            with open(path, "rb") as handle:
                return handle.read()

        reference = journal_bytes(_config(1), "w1.ckpt")
        assert journal_bytes(_config(3), "w3.ckpt") == reference
        killed = _config(
            3, steal_crash_injector=WorkerCrashInjector(kill_after={1: 2}))
        assert journal_bytes(killed, "w3-kill.ckpt") == reference

    def test_metrics_export_byte_identical_across_schedulers(
            self, history, tmp_path):
        def export(config, name):
            with observe(registry=MetricsRegistry()) as (registry, _):
                run_survey(history, config)
                path = str(tmp_path / name)
                JsonLinesExporter(path).export(registry=registry)
            with open(path, "rb") as handle:
                return handle.read()

        reference = export(_config(1), "w1.jsonl")
        killed = _config(
            3, steal_crash_injector=WorkerCrashInjector(kill_after={0: 3}))
        assert export(_config(3), "w3.jsonl") == reference
        assert export(killed, "w3-kill.jsonl") == reference

    def test_trace_export_byte_identical_across_schedulers(
            self, history, tmp_path):
        def trace_bytes(config, name):
            ticks = iter(range(1_000_000))
            tracer = Tracer(clock=lambda: float(next(ticks)))
            with observe(tracer=tracer):
                run_survey(history, config)
                path = str(tmp_path / name)
                JsonLinesExporter(path).export(tracer=tracer)
            with open(path, "rb") as handle:
                return handle.read()

        reference = trace_bytes(_config(1), "w1.jsonl")
        killed = _config(
            3, steal_crash_injector=WorkerCrashInjector(kill_after={1: 4}))
        assert trace_bytes(_config(3), "w3.jsonl") == reference
        assert trace_bytes(killed, "w3-kill.jsonl") == reference


class TestStealResume:
    def _crash_steal(self, history, path, at_step, workers):
        """Crash the *parent* mid-steal: workers disarm the crashpoint
        injector at bootstrap, so the simulated death hits the
        dispatcher's in-order flush, never a worker."""
        checkpoint = Checkpoint.start(path)
        try:
            with crashing(CrashInjector(at_step=at_step)):
                with pytest.raises(SimulatedCrash):
                    run_survey(history, _config(workers),
                               checkpoint=checkpoint)
        finally:
            checkpoint.close()

    def test_parent_crash_mid_steal_resumes_identically(
            self, history, one_worker_baseline, tmp_path):
        path = str(tmp_path / "steal.ckpt")
        self._crash_steal(history, path, at_step=12, workers=3)
        # The crash leaves the supervision residue a resume feeds on:
        # per-incarnation shard journals plus the lease log.
        assert list_shard_journals(path)
        assert os.path.exists(lease_log_path(path))
        resumed = Checkpoint.resume(path)
        try:
            result = run_survey(history, _config(8),
                                checkpoint=resumed)
        finally:
            resumed.close()
        assert _canonical(result) == one_worker_baseline
        assert list_shard_journals(path) == []
        assert not os.path.exists(lease_log_path(path))


class TestCliWorkers:
    ARGS = ("survey", "--fast", "--top", "20", "--stratum", "5",
            "--fault-rate", "0.3")

    def _run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        assert code == 0, out.getvalue()
        return out.getvalue()

    def test_workers_flag_output_identical(self):
        serial = self._run(*self.ARGS, "--workers", "1")
        assert self._run(*self.ARGS, "--workers", "4") == serial

    def test_workers_resume_with_different_count(self, tmp_path):
        path = str(tmp_path / "cli.ckpt")
        first = self._run(*self.ARGS, "--workers", "2",
                          "--checkpoint", path)
        resumed = self._run(*self.ARGS, "--workers", "8",
                            "--checkpoint", path, "--resume")
        assert resumed == f"resuming from checkpoint {path}\n" + first

    def test_default_matches_two_workers_under_faults(self):
        """The default run is the shared-nothing executor too, so with
        faults (and so backoff jitter) it still matches ``--workers 2``."""
        args = (*self.ARGS, "--fault-seed", "7")
        assert self._run(*args) == self._run(*args, "--workers", "2")

    def test_serial_loop_checkpoint_refused(self, tmp_path):
        """A survey scope journaled without the ``execution`` marker was
        written by the retired serial loop, whose backoff jitter cannot
        be continued shared-nothing: resuming it exits 2."""
        path = str(tmp_path / "serial.ckpt")
        config = SurveyConfig(top_n=20, stratum_size=5, fault_rate=0.3)
        legacy = _survey_fingerprint(config, "easylist+whitelist")
        del legacy["execution"]
        checkpoint = Checkpoint.start(
            path, {"command": "survey", "seed": 2015, "fast": True})
        checkpoint.begin_scope("survey/easylist+whitelist", legacy)
        checkpoint.close()
        out = io.StringIO()
        code = main([*self.ARGS, "--checkpoint", path, "--resume"],
                    out=out)
        assert code == 2
        error = out.getvalue().splitlines()[-1]
        assert error.startswith("error: ")
        assert "not be comparable" in error


class TestCliExecutorFlags:
    """Out-of-range executor flags exit 2 before any work starts."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(args):
            raise AssertionError("the study started despite a bad flag")
        monkeypatch.setattr("repro.cli._study", fail)

    def _rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([*TestCliWorkers.ARGS, flag, value], out=io.StringIO())
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"argument {flag}: must be >=" in error

    def test_zero_workers_rejected(self, capsys):
        self._rejected(capsys, "--workers", "0")

    def test_zero_lease_size_rejected(self, capsys):
        self._rejected(capsys, "--lease-size", "0")

    def test_negative_max_worker_restarts_rejected(self, capsys):
        self._rejected(capsys, "--max-worker-restarts", "-1")


class TestCliStealScheduler:
    ARGS = TestCliWorkers.ARGS

    def _run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        assert code == 0, out.getvalue()
        return out.getvalue()

    def test_steal_flag_output_identical(self):
        serial = self._run(*self.ARGS, "--workers", "1")
        stolen = self._run(*self.ARGS, "--workers", "4",
                           "--lease-size", "2")
        assert stolen == serial

    def test_run_id_ignores_scheduler_placement(self, tmp_path):
        """Two invocations differing only in execution placement share
        a run ID — and, in fact, the whole metrics artifact."""
        def metrics_bytes(name, *extra):
            path = tmp_path / name
            self._run(*self.ARGS, "--metrics-out", str(path), *extra)
            return path.read_bytes()

        assert metrics_bytes("w4.jsonl", "--workers", "4",
                             "--lease-size", "3",
                             "--max-worker-restarts", "9") == \
            metrics_bytes("default.jsonl")
