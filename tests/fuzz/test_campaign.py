"""Campaign-level tests: job determinism, aggregation, validation."""

import json

import pytest

from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.campaign import run_schedule_job
from repro.runtime import ExecutionRuntime


def job(app_id="App-7", seed=0, rounds=2, policy="random",
        lam_tolerance=0.01, oracles=False):
    return (app_id, seed, rounds, policy, lam_tolerance, oracles)


class TestScheduleJob:
    def test_same_job_reproduces_digests(self):
        first = run_schedule_job(job())
        second = run_schedule_job(job())
        assert first.trace_digest == second.trace_digest
        assert first.report_digest == second.report_digest
        assert first.inferred == second.inferred

    def test_different_seeds_differ(self):
        a = run_schedule_job(job(seed=0))
        b = run_schedule_job(job(seed=1))
        assert a.trace_digest != b.trace_digest

    def test_policy_changes_trace(self):
        a = run_schedule_job(job(policy="random"))
        b = run_schedule_job(job(policy="pct"))
        assert a.trace_digest != b.trace_digest

    def test_oracles_pass_at_paper_defaults(self):
        result = run_schedule_job(job(rounds=3, oracles=True))
        assert result.violations == []
        names = {o["name"] for o in result.oracles}
        assert names == {
            "ground-truth",
            "lambda-stability",
            "predicted-unwitnessed",
        }
        assert result.oracle_failures == []

    def test_predicted_unwitnessed_oracle_reports_targets(self):
        result = run_schedule_job(job(rounds=3, oracles=True))
        (oracle,) = [
            o for o in result.oracles
            if o["name"] == "predicted-unwitnessed"
        ]
        assert oracle["passed"]  # fails only on invalid witnesses
        assert oracle["data"]["invalid_witnesses"] == 0
        assert oracle["data"]["predicted"] >= oracle["data"]["unwitnessed"]
        assert oracle["data"]["targets"] == sorted(
            oracle["data"]["targets"]
        )

    def test_result_is_json_serializable(self):
        result = run_schedule_job(job())
        restored = json.loads(json.dumps(result.to_dict()))
        assert restored["app_id"] == "App-7"
        assert restored["executions"] > 0
        assert restored["events_observed"] > 0


class TestCampaignConfigValidate:
    def test_validate_is_read_only(self):
        """validate() must not rewrite app_ids: the caller's config
        serializes exactly as passed, and double-validation is a no-op
        by inspection."""
        config = CampaignConfig(app_ids=["app7_statsd", "app-2"])
        config.validate()
        assert config.app_ids == ["app7_statsd", "app-2"]
        config.validate()  # idempotent: still the caller's spelling
        assert config.app_ids == ["app7_statsd", "app-2"]

    def test_resolved_is_pure(self):
        config = CampaignConfig(app_ids=["app7_statsd", "app-2"])
        resolved = config.resolved()
        assert resolved.app_ids == ["App-7", "App-2"]
        assert config.app_ids == ["app7_statsd", "app-2"]
        # Resolution is stable: resolving a resolved config changes
        # nothing further.
        assert resolved.resolved().app_ids == resolved.app_ids

    def test_rejects_unknown_app(self):
        with pytest.raises(KeyError, match="app9_nope"):
            CampaignConfig(app_ids=["app9_nope"]).validate()

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="polic"):
            CampaignConfig(
                app_ids=["App-7"], policy="roundrobin"
            ).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"schedules": 0},
            {"rounds": 0},
            {"engine": "auto"},
            {"replay_every": -1},
            {"app_ids": []},
        ],
    )
    def test_rejects_bad_numbers(self, kwargs):
        base = {"app_ids": ["App-7"]}
        base.update(kwargs)
        with pytest.raises(ValueError):
            CampaignConfig(**base).validate()


def _result(app_id="App-7", seed=0, violations=(), oracles=()):
    from repro.fuzz.campaign import ScheduleResult

    return ScheduleResult(
        app_id=app_id,
        seed=seed,
        policy="random",
        trace_digest="t",
        report_digest="r",
        inferred=[],
        events_observed=1,
        executions=1,
        violations=list(violations),
        oracles=list(oracles),
    )


def _report(**kwargs):
    from repro.fuzz.campaign import CampaignReport

    kwargs.setdefault("config", CampaignConfig(app_ids=["App-7"]))
    kwargs.setdefault("results", [])
    return CampaignReport(**kwargs)


class TestCampaignVerdicts:
    """ok/exit_code semantics: oracle failures and permutation
    mismatches are distinct counters with distinct strictness."""

    def test_clean_report_passes_both_verdicts(self):
        report = _report(results=[_result()])
        assert report.ok() and report.ok(strict=True)
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 0

    def test_oracle_failure_only_fails_strict_verdict(self):
        failed = {"name": "ground-truth", "passed": False, "data": {}}
        report = _report(results=[_result(oracles=[failed])])
        assert report.total_oracle_failures == 1
        assert report.total_permutation_mismatches == 0
        assert report.ok()              # non-strict: oracles advisory
        assert not report.ok(strict=True)
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_permutation_mismatch_only_fails_both_verdicts(self):
        mismatch = {"app_id": "App-7", "seed": 0}
        report = _report(
            results=[_result()],
            permutation_mismatches=[mismatch],
            permutation_sampled=1,
        )
        assert not report.ok()
        assert not report.ok(strict=True)
        assert report.exit_code() == 1

    def test_mismatches_not_double_counted_as_oracle_failures(self):
        mismatch = {"app_id": "App-7", "seed": 0}
        report = _report(
            results=[_result()],
            permutation_mismatches=[mismatch],
            permutation_sampled=1,
        )
        assert report.total_oracle_failures == 0
        assert report.total_permutation_mismatches == 1

    def test_sanitizer_violation_fails_both_verdicts(self):
        violation = {"kind": "order", "detail": "x"}
        report = _report(results=[_result(violations=[violation])])
        assert not report.ok()
        assert not report.ok(strict=True)

    def test_to_dict_reports_both_verdicts(self):
        failed = {"name": "lambda-stability", "passed": False, "data": {}}
        totals = _report(results=[_result(oracles=[failed])]).to_dict()[
            "totals"
        ]
        assert totals["ok"] is True
        assert totals["strict_ok"] is False
        assert totals["oracle_failures"] == 1
        assert totals["permutation_mismatches"] == 0


class TestRunCampaign:
    def test_small_campaign_end_to_end(self):
        config = CampaignConfig(
            app_ids=["app7_statsd"],
            schedules=3,
            rounds=2,
            oracles=False,
            replay_every=2,
        )
        report = run_campaign(config)
        assert len(report.results) == 3
        assert [r.seed for r in report.results] == [0, 1, 2]
        assert all(r.app_id == "App-7" for r in report.results)
        assert report.total_violations == 0
        # replay_every=2 over 3 jobs samples jobs 0 and 2.
        assert report.permutation_sampled == 2
        assert report.permutation_mismatches == []
        assert report.ok()
        # run_campaign resolved a copy; the caller's config is intact.
        assert config.app_ids == ["app7_statsd"]
        assert report.config.app_ids == ["App-7"]

        per_app = report.per_app()["App-7"]
        assert per_app["schedules"] == 3
        assert per_app["violations"] == 0
        assert 1 <= per_app["distinct_traces"] <= 3

        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["totals"]["schedules"] == 3
        assert blob["totals"]["ok"] is True
        assert len(blob["schedules"]) == 3
        assert "fuzz campaign" in report.summary()
        assert "RESULT: OK" in report.summary()

    def test_replay_disabled(self):
        config = CampaignConfig(
            app_ids=["App-7"],
            schedules=2,
            rounds=1,
            oracles=False,
            replay_every=0,
        )
        report = run_campaign(config)
        assert report.permutation_sampled == 0
        assert report.permutation_mismatches == []

    def test_campaign_on_shared_runtime(self):
        config = CampaignConfig(
            app_ids=["App-7"],
            schedules=2,
            rounds=1,
            oracles=False,
            replay_every=0,
        )
        with ExecutionRuntime(engine="process:2") as rt:
            report = run_campaign(config, runtime=rt)
        assert len(report.results) == 2
        assert report.ok()
        # The report names the caller's engine, not the config's (None).
        assert report.to_dict()["campaign"]["engine"] == "process:2"
        assert "workers" not in report.to_dict()["campaign"]
        assert "engine=process:2" in report.summary()

    def test_base_seed_offsets_schedules(self):
        config = CampaignConfig(
            app_ids=["App-7"],
            schedules=2,
            base_seed=10,
            rounds=1,
            oracles=False,
            replay_every=0,
        )
        report = run_campaign(config)
        assert [r.seed for r in report.results] == [10, 11]
