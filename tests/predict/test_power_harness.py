"""Detection-power harness tests: jobs, sweeps, tables, serialization."""

import json

import pytest

from repro.predict import PowerConfig, run_power_sweep
from repro.predict.harness import run_predict_job
from repro.runtime import ExecutionRuntime


def test_same_job_reproduces_row():
    job = ("App-7", 0, 2, "random", "manual")
    first = run_predict_job(job)
    second = run_predict_job(job)

    def stable(row):
        blob = row.to_dict()
        blob.pop("elapsed_s")  # wall-clock, the one unstable field
        return blob

    assert stable(first) == stable(second)
    assert first.spec_name == "Manual_pr"
    assert first.superset_ok
    assert first.invalid_witnesses == 0


def test_sherlock_job_uses_inferred_spec():
    row = run_predict_job(("App-7", 0, 2, "random", "sherlock"))
    assert row.spec_name == "SherLock_pr"
    assert row.superset_ok


def test_sweep_table_and_json(capsys):
    config = PowerConfig(
        app_ids=["app7_statsd"], schedules=1, rounds=2, specs=("manual",)
    )
    report = run_power_sweep(config)
    # The sweep resolves a copy; the caller's config keeps its spelling.
    assert config.app_ids == ["app7_statsd"]
    assert config.resolved().app_ids == ["App-7"]
    assert len(report.rows) == 1
    assert report.all_supersets_ok
    assert report.total_invalid_witnesses == 0

    rendered = report.table().render()
    assert "Detection power" in rendered
    assert "Manual_pr" in rendered

    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["totals"]["jobs"] == 1
    assert blob["totals"]["supersets_ok"] is True
    assert blob["rows"][0]["app_id"] == "App-7"


def test_sweep_on_shared_runtime():
    config = PowerConfig(
        app_ids=["App-7"], schedules=2, rounds=1, specs=("manual",)
    )
    with ExecutionRuntime(engine="process:2") as rt:
        report = run_power_sweep(config, runtime=rt)
    assert [r.seed for r in report.rows] == [0, 1]
    # The report names the caller's engine, not the config's (None).
    assert report.to_dict()["config"]["engine"] == "process:2"
    assert "workers" not in report.to_dict()["config"]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"schedules": 0},
        {"rounds": 0},
        {"app_ids": []},
        {"specs": ("lockset",)},
        {"policy": "roundrobin"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    base = {"app_ids": ["App-7"]}
    base.update(kwargs)
    with pytest.raises((ValueError, KeyError)):
        PowerConfig(**base).validate()
