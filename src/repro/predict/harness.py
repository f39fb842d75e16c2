"""Detection-power harness: FastTrack vs TSVD vs predictive.

Runs the predictive detector next to the observed-order baselines over
the same traces and emits a Table-2/3-style comparison per app × spec
(``repro predict`` on the CLI).  Jobs fan out across an
:class:`~repro.runtime.engine.ExecutionRuntime` engine exactly like the
fuzz campaign: one job per ``(app, spec kind, schedule seed)``, plain
tuples in, picklable :class:`PowerRow` aggregates out.

The interesting deltas per row:

* ``predicted_only`` — fields the predictive detector exposes that
  FastTrack's first-race report *missed in the observed order* (the
  detection-power win; a planted racy field landing here is the
  acceptance case);
* ``unwitnessed`` — predicted fields FastTrack never reported at all
  during the run, even past its first-race soundness horizon: concrete
  schedule-search targets for the fuzz campaign's oracle;
* ``superset_ok`` — the differential soundness invariant (predictive ⊇
  FastTrack first races, per execution, same spec).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..analysis.tables import TableResult
from ..apps.registry import get_application, resolve_app_id
from ..core.config import SherlockConfig
from ..core.pipeline import Sherlock
from ..racedet.annotations import manual_spec, sherlock_spec
from ..racedet.fasttrack import RaceReport, analyze_run
from ..racedet.spec import HappensBeforeSpec
from ..runtime.engine import ExecutionRuntime
from ..runtime.engines import parse_engine_spec
from ..sim.program import Application
from ..sim.runner import RunOptions, run_application
from ..tsvd.detector import run_tsvd
from .detector import PredictedRace, PredictionAnalysis, PredictiveDetector

#: One harness job: (app_id, seed, rounds, policy, spec_kind).  Plain
#: data so it crosses the process-pool boundary; ``rounds`` only feeds
#: the SherLock inference for ``spec_kind="sherlock"``.
PredictJob = Tuple[str, int, int, str, str]


def predictive_name(spec: HappensBeforeSpec) -> str:
    """Manual_dr → Manual_pr (mirroring the FastTrack naming)."""
    if spec.name.endswith("_dr"):
        return spec.name[:-3] + "_pr"
    return spec.name + "_pr"


@dataclass
class PredictionReport:
    """Everything the predictive detector found for one app run."""

    app_id: str
    spec_name: str
    seed: int
    policy: str
    #: Deduped predicted races across the run's tests, witnesses kept.
    races: List[PredictedRace] = field(default_factory=list)
    per_test: Dict[str, PredictionAnalysis] = field(default_factory=dict)
    #: FastTrack's first race per test under the same spec.
    ft_first: List[Optional[RaceReport]] = field(default_factory=list)
    #: Per-execution invariant: predicted keys ⊇ FastTrack first race.
    superset_ok: bool = True
    #: Fields predicted but not in FastTrack's *first-race* reports.
    predicted_only_fields: List[str] = field(default_factory=list)
    #: Fields predicted but never reported by FastTrack *at all*.
    unwitnessed_fields: List[str] = field(default_factory=list)


def predict_app(
    app: Application,
    spec: HappensBeforeSpec,
    seed: int = 0,
    policy: str = "random",
    near: float = 1.0,
    window_cap: int = 15,
) -> PredictionReport:
    """Run the predictive detector and FastTrack over one app run."""
    options = RunOptions(seed=seed, run_id=0, schedule_policy=policy)
    executions = run_application(app, options)
    detector = PredictiveDetector(spec, near=near, window_cap=window_cap)
    report = PredictionReport(
        app_id=app.app_id,
        spec_name=predictive_name(spec),
        seed=seed,
        policy=policy,
    )
    predicted_fields = set()
    ft_first_fields = set()
    ft_all_fields = set()
    for execution in executions:
        analysis = detector.analyze(execution.log)
        report.per_test[execution.test_name] = analysis
        report.races.extend(
            replace(race, test_name=execution.test_name)
            for race in analysis.races
        )
        predicted_fields.update(r.field_name for r in analysis.races)
        ft = analyze_run(execution.log, spec)
        first = ft.first
        report.ft_first.append(first)
        ft_all_fields.update(r.field_name for r in ft.races)
        if first is not None:
            ft_first_fields.add(first.field_name)
            if first.key() not in analysis.keys():
                report.superset_ok = False
    report.predicted_only_fields = sorted(
        predicted_fields - ft_first_fields
    )
    report.unwitnessed_fields = sorted(predicted_fields - ft_all_fields)
    return report


@dataclass
class PowerRow:
    """One job's aggregate (picklable): app × spec × schedule seed."""

    app_id: str
    spec_kind: str   # "manual" | "sherlock"
    spec_name: str   # Manual_pr | SherLock_pr
    seed: int
    policy: str
    #: FastTrack first-race counts, classified against ground truth.
    ft_true: int = 0
    ft_false: int = 0
    #: Distinct predicted fields, classified against ground truth.
    predicted_true: int = 0
    predicted_false: int = 0
    predicted_fields: List[str] = field(default_factory=list)
    predicted_only_fields: List[str] = field(default_factory=list)
    unwitnessed_fields: List[str] = field(default_factory=list)
    superset_ok: bool = True
    races: int = 0
    pairs_checked: int = 0
    pairs_predicted: int = 0
    unwitnessed_pairs: int = 0
    invalid_witnesses: int = 0
    #: TSVD baseline over the same seed (spec-independent).
    tsvd_synchronized: int = 0
    tsvd_racy: int = 0
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "spec_kind": self.spec_kind,
            "spec_name": self.spec_name,
            "seed": self.seed,
            "policy": self.policy,
            "ft_true": self.ft_true,
            "ft_false": self.ft_false,
            "predicted_true": self.predicted_true,
            "predicted_false": self.predicted_false,
            "predicted_fields": self.predicted_fields,
            "predicted_only_fields": self.predicted_only_fields,
            "unwitnessed_fields": self.unwitnessed_fields,
            "superset_ok": self.superset_ok,
            "races": self.races,
            "pairs_checked": self.pairs_checked,
            "pairs_predicted": self.pairs_predicted,
            "unwitnessed_pairs": self.unwitnessed_pairs,
            "invalid_witnesses": self.invalid_witnesses,
            "tsvd_synchronized": self.tsvd_synchronized,
            "tsvd_racy": self.tsvd_racy,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def run_predict_job(job: PredictJob) -> PowerRow:
    """Run one app × spec × seed job (worker-process entry point)."""
    app_id, seed, rounds, policy, spec_kind = job
    t_start = time.perf_counter()
    app = get_application(app_id)
    if spec_kind == "manual":
        spec = manual_spec(app)
    elif spec_kind == "sherlock":
        config = SherlockConfig(
            rounds=rounds, seed=seed, schedule_policy=policy
        )
        spec = sherlock_spec(Sherlock(app, config).run().final)
    else:
        raise ValueError(f"unknown spec kind {spec_kind!r}")
    report = predict_app(app, spec, seed=seed, policy=policy)
    tsvd = run_tsvd(app, seed=seed, runs=1)

    racy = app.ground_truth.racy_fields
    row = PowerRow(
        app_id=app.app_id,
        spec_kind=spec_kind,
        spec_name=report.spec_name,
        seed=seed,
        policy=policy,
        tsvd_synchronized=len(tsvd.synchronized_pairs),
        tsvd_racy=len(tsvd.racy_pairs),
    )
    for first in report.ft_first:
        if first is None:
            continue
        if first.field_name in racy:
            row.ft_true += 1
        else:
            row.ft_false += 1
    fields = sorted({r.field_name for r in report.races})
    row.predicted_fields = fields
    row.predicted_true = sum(1 for f in fields if f in racy)
    row.predicted_false = len(fields) - row.predicted_true
    row.predicted_only_fields = report.predicted_only_fields
    row.unwitnessed_fields = report.unwitnessed_fields
    row.superset_ok = report.superset_ok
    row.races = len(report.races)
    for analysis in report.per_test.values():
        row.pairs_checked += analysis.pairs_checked
        row.pairs_predicted += analysis.pairs_predicted
        row.unwitnessed_pairs += analysis.unwitnessed_pairs
        row.invalid_witnesses += analysis.invalid_witnesses
    row.elapsed_s = time.perf_counter() - t_start
    return row


@dataclass
class PowerConfig:
    """Knobs of one detection-power sweep."""

    app_ids: List[str] = field(default_factory=list)
    schedules: int = 1
    base_seed: int = 0
    #: SherLock inference rounds (spec_kind="sherlock" only).
    rounds: int = 3
    policy: str = "random"
    specs: Tuple[str, ...] = ("manual", "sherlock")
    #: Execution-engine spec for the job fan-out ("serial" |
    #: "process[:N]"; ``None`` means serial).  Ignored when the caller
    #: passes its own runtime.
    engine: Optional[str] = None

    def validate(self) -> None:
        """Read-only sanity checks (never mutates the config)."""
        if self.schedules < 1:
            raise ValueError("schedules must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not self.app_ids:
            raise ValueError("power sweep needs at least one app id")
        for kind in self.specs:
            if kind not in ("manual", "sherlock"):
                raise ValueError(f"unknown spec kind {kind!r}")
        if self.engine is not None:
            parse_engine_spec(self.engine)
        for app_id in self.app_ids:
            resolve_app_id(app_id)
        SherlockConfig(schedule_policy=self.policy)  # spec check

    def resolved(self) -> "PowerConfig":
        """Validated copy with app aliases resolved (pure)."""
        self.validate()
        return replace(
            self, app_ids=[resolve_app_id(a) for a in self.app_ids]
        )


@dataclass
class PowerReport:
    """Aggregated detection-power sweep."""

    config: PowerConfig
    rows: List[PowerRow]
    elapsed_s: float = 0.0
    #: Spec of the engine that ran the jobs (e.g. ``"process:4"``),
    #: taken from the runtime, not from the config.
    engine: str = "serial"

    @property
    def all_supersets_ok(self) -> bool:
        return all(r.superset_ok for r in self.rows)

    @property
    def total_invalid_witnesses(self) -> int:
        return sum(r.invalid_witnesses for r in self.rows)

    def table(self) -> TableResult:
        """FastTrack vs TSVD vs predictive, per app × spec."""
        table = TableResult(
            title="Detection power: FastTrack (first race) vs TSVD vs "
            "predictive",
            headers=[
                "App", "Spec", "Sched", "FT T/F", "Pred T/F",
                "Pred-only", "Unwitnessed", "⊇FT", "TSVD sync/racy",
            ],
        )
        for app_id in self.config.app_ids:
            for kind in self.config.specs:
                rows = [
                    r
                    for r in self.rows
                    if r.app_id == app_id and r.spec_kind == kind
                ]
                if not rows:
                    continue
                only = sorted(
                    {f for r in rows for f in r.predicted_only_fields}
                )
                unwit = sorted(
                    {f for r in rows for f in r.unwitnessed_fields}
                )
                table.add_row(
                    app_id,
                    rows[0].spec_name,
                    len(rows),
                    f"{sum(r.ft_true for r in rows)}/"
                    f"{sum(r.ft_false for r in rows)}",
                    f"{sum(r.predicted_true for r in rows)}/"
                    f"{sum(r.predicted_false for r in rows)}",
                    len(only),
                    len(unwit),
                    "yes" if all(r.superset_ok for r in rows) else "NO",
                    f"{rows[0].tsvd_synchronized}/{rows[0].tsvd_racy}",
                )
        table.notes.append(
            "FT T/F: first-race-per-run counts classified against "
            "ground truth; Pred T/F: distinct predicted fields"
        )
        table.notes.append(
            "Pred-only: fields FastTrack's first race missed in the "
            "observed order; Unwitnessed: never reported by FastTrack"
        )
        return table

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": {
                "app_ids": self.config.app_ids,
                "schedules": self.config.schedules,
                "base_seed": self.config.base_seed,
                "rounds": self.config.rounds,
                "policy": self.config.policy,
                "specs": list(self.config.specs),
                "engine": self.engine,
            },
            "totals": {
                "jobs": len(self.rows),
                "supersets_ok": self.all_supersets_ok,
                "invalid_witnesses": self.total_invalid_witnesses,
                "predicted_races": sum(r.races for r in self.rows),
                "elapsed_s": round(self.elapsed_s, 3),
            },
            "rows": [r.to_dict() for r in self.rows],
        }


def run_power_sweep(
    config: PowerConfig,
    runtime: Optional[ExecutionRuntime] = None,
) -> PowerReport:
    """Execute a detection-power sweep, optionally on a caller-owned
    runtime (jobs fan out via ``map_jobs`` like the fuzz campaign)."""
    config = config.resolved()
    t_start = time.perf_counter()
    jobs: List[PredictJob] = [
        (app_id, config.base_seed + i, config.rounds, config.policy, kind)
        for app_id in config.app_ids
        for kind in config.specs
        for i in range(config.schedules)
    ]
    owned = runtime is None
    rt = runtime or ExecutionRuntime(engine=config.engine)
    try:
        rows = rt.map_jobs(run_predict_job, jobs)
    finally:
        if owned:
            rt.close()
    return PowerReport(
        config=config,
        rows=rows,
        elapsed_s=time.perf_counter() - t_start,
        engine=rt.engine.spec,
    )


__all__ = [
    "PowerConfig",
    "PowerReport",
    "PowerRow",
    "PredictJob",
    "PredictionReport",
    "predict_app",
    "predictive_name",
    "run_power_sweep",
    "run_predict_job",
]
