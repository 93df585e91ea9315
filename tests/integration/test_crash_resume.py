"""Acceptance: kill the pipeline at any step, resume, get identical output.

The crash-safety contract (see ``docs/RESILIENCE.md``) is that a run
killed at an arbitrary journal append — on a clean record boundary or
mid-write (torn tail) — and restarted with ``Checkpoint.resume`` is
byte-identical to an uninterrupted run.  These tests inject
``SimulatedCrash`` at early/late/torn steps of the Section 5 survey and
the history generator, then compare full outcome projections and
rendered outputs against an unjournaled baseline.

Observability stays disabled (the default): a resumed run legitimately
skips re-incrementing counters for replayed units, so metric files are
the one artifact exempt from the byte-identity contract.
"""

import io
import json
import os

import pytest

from repro.cli import main
from repro.history.generator import generate_history
from repro.measurement.stats import section51_headline
from repro.measurement.survey import SurveyConfig, run_survey
from repro.reporting.tables import render_crawl_health
from repro.state import Checkpoint, lease_log_path
from repro.state.crashpoints import CrashInjector, SimulatedCrash, crashing
from repro.web.crawlstate import snapshot_outcome

#: Small but adversarial: 30% injected faults exercise retries and
#: rng-consuming backoff around the crash point.
_CONFIG = SurveyConfig(top_n=20, stratum_size=5, fault_rate=0.3,
                       fault_seed=7)
#: 35 targets x 2 engine configs = 70 unit appends + 2 scope appends.
_LAST_APPEND = 72


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
def baseline(history):
    """The uninterrupted, unjournaled run every scenario must match."""
    return _canonical(run_survey(history, _CONFIG))


def _crash_then_resume(history, path, at_step, torn=False):
    checkpoint = Checkpoint.start(path)
    try:
        with crashing(CrashInjector(at_step=at_step, torn=torn)):
            with pytest.raises(SimulatedCrash):
                run_survey(history, _CONFIG, checkpoint=checkpoint)
    finally:
        checkpoint.close()
    # The default one-worker run is inline: no workers, no lease log.
    assert not os.path.exists(lease_log_path(path))
    resumed = Checkpoint.resume(path)
    assert resumed.resumed
    assert resumed.truncated_tail == torn
    try:
        return run_survey(history, _CONFIG, checkpoint=resumed)
    finally:
        resumed.close()


class TestSurveyCrashResume:
    def test_uninterrupted_checkpointed_run_matches_plain(
            self, history, baseline, tmp_path):
        checkpoint = Checkpoint.start(str(tmp_path / "run.ckpt"))
        try:
            result = run_survey(history, _CONFIG, checkpoint=checkpoint)
        finally:
            checkpoint.close()
        assert _canonical(result) == baseline

    @pytest.mark.parametrize("at_step", [3, _LAST_APPEND - 1])
    def test_kill_and_resume_identical(self, history, baseline, tmp_path,
                                       at_step):
        result = _crash_then_resume(history, str(tmp_path / "run.ckpt"),
                                    at_step)
        assert _canonical(result) == baseline

    def test_torn_write_mid_run_identical(self, history, baseline,
                                          tmp_path):
        result = _crash_then_resume(history, str(tmp_path / "run.ckpt"),
                                    at_step=40, torn=True)
        assert _canonical(result) == baseline

    def test_resume_with_different_config_rejected(self, history,
                                                   tmp_path):
        from repro.state import CheckpointError

        path = str(tmp_path / "run.ckpt")
        _crash_then_resume(history, path, at_step=3)
        resumed = Checkpoint.resume(path)
        other = SurveyConfig(top_n=20, stratum_size=5, fault_rate=0.5,
                             fault_seed=7)
        try:
            with pytest.raises(CheckpointError, match="not be comparable"):
                run_survey(history, other, checkpoint=resumed)
        finally:
            resumed.close()


def _history_fingerprint(history) -> str:
    repo = history.repository
    changesets = [
        (c.rev, c.when.isoformat(), c.message, list(c.added),
         list(c.removed))
        for c in repo.log()
    ]
    return json.dumps({
        "changesets": changesets,
        "tip": history.tip_lines(),
        "publishers": {k: list(v)
                       for k, v in history.publisher_directory.items()},
        "sitekeys": history.sitekeys,
    }, sort_keys=True)


class TestHistoryCrashResume:
    def test_mid_generation_crash_resume_identical(self, history,
                                                   tmp_path):
        path = str(tmp_path / "hist.ckpt")
        checkpoint = Checkpoint.start(path)
        try:
            with crashing(CrashInjector(at_step=300)):
                with pytest.raises(SimulatedCrash):
                    generate_history(seed=2015, key_bits=128,
                                     checkpoint=checkpoint)
        finally:
            checkpoint.close()
        resumed = Checkpoint.resume(path)
        assert resumed.resumed
        try:
            regenerated = generate_history(seed=2015, key_bits=128,
                                           checkpoint=resumed)
        finally:
            resumed.close()
        # The session ``history`` fixture is the uninterrupted baseline
        # (same seed and key size).
        assert _history_fingerprint(regenerated) == \
            _history_fingerprint(history)


class TestCliResume:
    ARGS = ("survey", "--fast", "--top", "20", "--stratum", "5",
            "--fault-rate", "0.3")

    def _run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        assert code == 0, out.getvalue()
        return out.getvalue()

    def test_checkpointed_then_resumed_output_identical(self, tmp_path):
        path = str(tmp_path / "cli.ckpt")
        plain = self._run(*self.ARGS)
        checkpointed = self._run(*self.ARGS, "--checkpoint", path)
        assert checkpointed == plain
        resumed = self._run(*self.ARGS, "--checkpoint", path, "--resume")
        assert resumed == f"resuming from checkpoint {path}\n" + plain

    def test_resume_requires_checkpoint_flag(self):
        out = io.StringIO()
        assert main(["survey", "--fast", "--resume"], out=out) == 2
        assert "--resume requires --checkpoint" in out.getvalue()

    def test_resume_under_different_flags_rejected(self, tmp_path):
        path = str(tmp_path / "cli.ckpt")
        self._run("table1", "--fast", "--checkpoint", path)
        out = io.StringIO()
        code = main(["survey", "--fast", "--top", "20", "--stratum", "5",
                     "--checkpoint", path, "--resume"], out=out)
        assert code == 2
        assert "different run" in out.getvalue()


class TestBenchmarkSmoke:
    """Satellite: keep the checkpoint-overhead benchmark importable."""

    def test_compare_overhead_harness(self):
        from benchmarks.bench_checkpoint_overhead import compare_overhead

        result = compare_overhead(
            SurveyConfig(top_n=10, stratum_size=5, fault_rate=0.2,
                         fault_seed=7), repeats=1)
        assert result["plain_s"] > 0
        assert result["journaled_s"] > 0
