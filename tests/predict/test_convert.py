"""Directed schedule-search conversion tests.

The acceptance spine: on App-1, App-5, and App-7, the predicted-only
races pinned by the PR 7 differential suite — planted racy fields
FastTrack's first-race report missed in the observed order — are
converted into observed FastTrack races by directed schedules (kernel
seed 0, default spec), under the rolling soundness horizon.  Plus the
cascade's unit semantics, the candidate-false-prediction signal, and
engine determinism of the conversion jobs (serial == process == async).
"""

import json

import pytest

from repro.api import convert_predictions
from repro.apps.registry import get_application
from repro.predict.convert import (
    ConvertConfig,
    DirectedRun,
    cascade_conversions,
    run_baseline_job,
    run_convert_job,
    run_conversion,
)
from repro.runtime import ExecutionRuntime

#: The planted races the PR 7 differential suite pins as predicted-only
#: on the three acceptance apps (observed seed-0 schedule, Manual_pr).
PLANTED_TARGETS = {
    "App-1": ["Microsoft.ApplicationInsights.Metrics."
              "MetricManager::aggregatedValue"],
    "App-5": ["Radical.Messaging.MessageBroker/Stats::dispatchCount",
              "Radical.Messaging.MessageBroker/Stats::dispatchTag"],
    "App-7": ["Statsd.Metrics::statsSent"],
}


class TestCascade:
    def run_seq(self, *sequences, seed=0):
        return DirectedRun(
            app_id="App-X",
            spec_kind="manual",
            directed_seed=seed,
            policy_spec=f"directed:{seed}|T::t",
            sequences=[(f"test{i}", list(s)) for i, s in
                       enumerate(sequences)],
        )

    def test_target_after_established_masker_converts(self):
        verdicts = cascade_conversions(
            established=["M::m"],
            targets=["T::t"],
            runs=[self.run_seq(["M::m", "T::t"])],
        )
        (v,) = verdicts
        assert v.converted
        assert v.directed_seed == 0
        assert v.test_name == "test0"

    def test_unestablished_report_blocks_the_horizon(self):
        verdicts = cascade_conversions(
            established=["M::m"],
            targets=["T::t"],
            runs=[self.run_seq(["M::m", "U::u", "T::t"])],
        )
        (v,) = verdicts
        assert not v.converted

    def test_cascade_extends_the_horizon(self):
        # t1 converts first and establishes its field, unblocking t2 —
        # regardless of run order (fixpoint iteration).
        verdicts = cascade_conversions(
            established=["M::m"],
            targets=["T::t1", "T::t2"],
            runs=[
                self.run_seq(["M::m", "T::t1", "T::t2"], seed=1),
                self.run_seq(["M::m", "T::t1"], seed=0),
            ],
        )
        assert all(v.converted for v in verdicts)

    def test_never_witnessed_target_is_flagged(self):
        verdicts = cascade_conversions(
            established=["M::m"],
            targets=["T::never"],
            runs=[self.run_seq(["M::m"])],
        )
        (v,) = verdicts
        assert not v.converted
        assert v.directed_seed is None

    def test_kind_annotated_targets_match_bare_fields(self):
        verdicts = cascade_conversions(
            established=[],
            targets=["T::t[read/write]"],
            runs=[self.run_seq(["T::t"])],
        )
        (v,) = verdicts
        assert v.converted
        assert v.target == "T::t[read/write]"
        assert v.field_name == "T::t"


@pytest.mark.parametrize("app_id", sorted(PLANTED_TARGETS))
def test_planted_predicted_only_races_convert(app_id):
    """Acceptance: every planted race the observed order masked is
    converted by directed schedules (kernel seed 0, default spec)."""
    report = convert_predictions(app_id, schedules=2)
    (row,) = report.rows
    assert row.spec_name == "Manual_pr"
    converted = {v.field_name for v in row.converted}
    for field_name in PLANTED_TARGETS[app_id]:
        assert field_name in converted
    # Evidence points at a real directed run.
    by_field = {v.field_name: v for v in row.verdicts}
    for field_name in PLANTED_TARGETS[app_id]:
        v = by_field[field_name]
        assert v.policy_spec.startswith("directed:")
        assert v.test_name
    assert report.planted_unconverted() == []
    assert report.exit_code(require_planted=True) == 0


#: Family-tier planted races (App-9/App-10): each must be either
#: FastTrack-first-detected in the observed order ("established") or
#: converted by a directed schedule.
FAMILY_PLANTED = {
    "App-9": ["iPOPO.Framework.EventDispatcher::listenerRef",
              "iPOPO.Framework.EventDispatcher::callbackLog"],
    "App-10": ["PyPipeline.Stages.StageRunner/Meter::registrationLog",
               "PyPipeline.Stages.StageRunner/Meter::drainCount"],
}


@pytest.mark.parametrize("app_id", sorted(FAMILY_PLANTED))
def test_family_planted_races_all_accounted(app_id):
    """Acceptance: App-9/App-10 pass the planted gate — every planted
    race is FastTrack-detected or converted (exit 0 under
    ``--require-planted``)."""
    report = convert_predictions(app_id, schedules=3)
    assert report.planted_unconverted() == []
    assert report.exit_code(require_planted=True) == 0
    (row,) = report.rows
    accounted = {v.field_name for v in row.converted}
    accounted.update(row.established)
    for field_name in FAMILY_PLANTED[app_id]:
        assert field_name in accounted, f"{app_id}: {field_name}"


def test_app10_masked_drain_race_converts_by_directed_schedule():
    """The App-10 split-phase drain race is report-order masked at seed
    0: it converts (with directed evidence), it is not established."""
    report = convert_predictions("App-10", schedules=3)
    (row,) = report.rows
    masked = "PyPipeline.Stages.StageRunner/Meter::drainCount"
    assert masked not in row.established
    by_field = {v.field_name: v for v in row.verdicts}
    verdict = by_field[masked]
    assert verdict.converted
    assert verdict.policy_spec.startswith("directed:")
    assert verdict.test_name


def test_impossible_target_is_flagged_candidate_false_prediction():
    """The falsification arm: a target no schedule can ever witness
    (the field never races) must survive N directed schedules
    unconverted and be flagged."""
    config = ConvertConfig(
        app_ids=["App-7"],
        schedules=2,
        targets={"App-7": ["Statsd.Metrics::statsSent",
                           "Statsd.Ghost::neverRaces"]},
    )
    report = run_conversion(config)
    (row,) = report.rows
    flagged = {v.target for v in row.flagged}
    assert flagged == {"Statsd.Ghost::neverRaces"}
    converted = {v.field_name for v in row.converted}
    assert "Statsd.Metrics::statsSent" in converted
    # The ghost is not planted ground truth, so the planted gate passes.
    assert report.exit_code(require_planted=True) == 0


def test_conversion_report_counts_and_serialization():
    report = convert_predictions("App-5", schedules=2)
    assert report.total_targets > 0
    assert report.total_converted + report.total_flagged == (
        report.total_targets
    )
    assert report.metrics.convert_targets == report.total_targets
    assert report.metrics.convert_converted == report.total_converted
    assert report.metrics.convert_runs == 2
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["totals"]["targets"] == report.total_targets
    assert blob["rows"][0]["app_id"] == "App-5"
    table = report.table().render()
    assert "App-5" in table and "Manual_pr" in table
    assert "RESULT" in report.summary()


def test_explicit_campaign_targets_override_baseline():
    target = "Radical.Messaging.MessageBroker/Stats::dispatchCount[read/write]"
    config = ConvertConfig(
        app_ids=["app5_radical"],  # alias: resolved() must handle it
        schedules=1,
        targets={"app5_radical": [target]},
    )
    report = run_conversion(config)
    (row,) = report.rows
    assert [v.target for v in row.verdicts] == [target]
    # A lone target cannot extend the horizon past its unvalidated
    # maskers, so it stays flagged — which is itself evidence the
    # explicit (single-target) list replaced the 10-field baseline set.
    assert not row.verdicts[0].converted
    assert [v.target for v in row.flagged] == [target]
    # The caller's config was not mutated by resolution.
    assert config.app_ids == ["app5_radical"]
    assert report.config.app_ids == ["App-5"]


class TestConvertConfigValidate:
    def test_validate_is_read_only(self):
        config = ConvertConfig(app_ids=["app5_radical"])
        config.validate()
        assert config.app_ids == ["app5_radical"]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ConvertConfig(app_ids=[]).validate()
        with pytest.raises(ValueError):
            ConvertConfig(app_ids=["App-5"], schedules=0).validate()
        with pytest.raises(ValueError):
            ConvertConfig(
                app_ids=["App-5"], specs=("bogus",)
            ).validate()
        with pytest.raises(ValueError):
            ConvertConfig(
                app_ids=["App-5"],
                targets={"App-5": ["A::x[jump]"]},
            ).validate()

    def test_rejects_empty_target_spec(self):
        """An empty target string is a spec error, not a no-op."""
        with pytest.raises(ValueError, match="empty directed target"):
            ConvertConfig(
                app_ids=["App-5"], targets={"App-5": [""]}
            ).validate()

    def test_rejects_unknown_app_in_targets_or_ids(self):
        with pytest.raises(KeyError):
            ConvertConfig(app_ids=["App-99"]).validate()

    def test_empty_target_list_falls_back_to_baseline(self):
        """An explicit-but-empty target list is valid config: the app
        derives its targets from the baseline (not an error)."""
        config = ConvertConfig(
            app_ids=["App-5"], targets={"App-5": []}
        )
        config.validate()  # no raise
        resolved = config.resolved()
        assert resolved.targets == {"App-5": []}


class TestDirectedDeterminism:
    """Same directed spec + targets ⇒ byte-identical trace digests,
    across repeated runs and across every engine."""

    JOB = ("App-7", 0, 1, 3, "manual", "random",
           ("Statsd.Metrics::statsSent",))

    def test_convert_job_reproduces(self):
        first = run_convert_job(self.JOB)
        second = run_convert_job(self.JOB)
        assert first.sequences == second.sequences
        assert first.policy_spec == second.policy_spec

    def test_distinct_directed_seeds_explore_distinct_schedules(self):
        app = get_application("App-7")
        base = run_baseline_job(("App-7", 0, 3, "random", "manual"))
        targets = tuple(base.predicted_only)
        specs = {
            run_convert_job(
                ("App-7", 0, dseed, 3, "manual", "random", targets)
            ).policy_spec
            for dseed in range(3)
        }
        assert len(specs) == 3
        assert len(app.tests) > 0  # sanity: the app actually ran

    @staticmethod
    def _stable(report):
        rows = []
        for row in report.rows:
            blob = row.to_dict()
            blob.pop("elapsed_s")  # wall clock differs across engines
            rows.append(blob)
        return rows

    @pytest.mark.parametrize("engine", ["serial", "process:2"])
    def test_serial_process_async_agree(self, engine):
        # The config names no engine: the caller's runtime decides, and
        # the report records the engine that actually ran.
        config = ConvertConfig(app_ids=["App-5"], schedules=2)
        with ExecutionRuntime(engine=engine) as rt:
            report = run_conversion(config, runtime=rt)
        reference = run_conversion(config)
        assert self._stable(report) == self._stable(reference)
        blob = report.to_dict()["config"]
        assert blob["engine"] == engine and "workers" not in blob
        assert report.metrics.workers == rt.engine.concurrency
        assert reference.to_dict()["config"]["engine"] == "serial"
