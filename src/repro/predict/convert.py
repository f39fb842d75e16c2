"""Directed schedule search: convert predicted races into observed ones.

PR 7's predictive detector emits *predicted-only* races — fields the
sync-preserving closure proves racy but FastTrack's first-race report
(sound per §5.4 of the paper only up to the first race of a run) missed
in the observed order.  This module closes the loop: it fans
:class:`~repro.sim.schedule.DirectedPolicy` schedules (PCT priorities
with change points pinned to the target fields' static locations) over
an :class:`~repro.runtime.engine.ExecutionRuntime` and checks, per
app × spec × target, whether the prediction is *converted* into an
observed FastTrack race — ground truth the predictive detector got
right.  A target no directed schedule ever converts is flagged a
candidate false prediction.

Conversion verdicts use a **rolling soundness horizon**.  FastTrack is
sound up to a run's first race; a race report further down the run is
trustworthy only if every report before it is itself established ground
truth.  The observed run's first races *are* established (they are the
sound reports), so the harness walks each directed run's report
sequence and accepts a target the moment every report preceding it is
established — and each accepted target joins the established set,
extending the horizon for the remaining targets (the classic
detect → validate → continue loop).  This matters structurally: when
two threads touch a masker field and a target field in the same program
order, the target's report position trails the masker's under *every*
interleaving, so demanding the target be the literal first report of a
run would be unsatisfiable — not because the prediction is wrong but
because report order is pinned by program order.  The rolling horizon
validates exactly what a human would: the target raced in a real
execution, and nothing unvalidated happened before it.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.tables import TableResult
from ..apps.registry import get_application, resolve_app_id
from ..core.config import SherlockConfig
from ..core.pipeline import Sherlock
from ..metrics import RunMetrics
from ..racedet.annotations import manual_spec, sherlock_spec
from ..racedet.fasttrack import analyze_run
from ..racedet.spec import HappensBeforeSpec
from ..runtime.engine import ExecutionRuntime
from ..runtime.engines import parse_engine_spec
from ..sim.runner import RunOptions, run_application
from ..sim.schedule import directed_spec, parse_target
from .harness import predict_app

#: One baseline job: (app_id, kernel_seed, rounds, policy, spec_kind).
BaselineJob = Tuple[str, int, int, str, str]

#: One directed job: (app_id, kernel_seed, directed_seed, rounds,
#: spec_kind, base_policy, targets).  Plain data so it crosses the
#: process-pool boundary like every other runtime job.
ConvertJob = Tuple[str, int, int, int, str, str, Tuple[str, ...]]


def _build_spec(
    app, spec_kind: str, rounds: int, seed: int, policy: str
) -> HappensBeforeSpec:
    """The happens-before vocabulary for one job (worker-side)."""
    if spec_kind == "manual":
        return manual_spec(app)
    if spec_kind == "sherlock":
        config = SherlockConfig(
            rounds=rounds, seed=seed, schedule_policy=policy
        )
        return sherlock_spec(Sherlock(app, config).run().final)
    raise ValueError(f"unknown spec kind {spec_kind!r}")


@dataclass
class ConvertBaseline:
    """Observed-order facts one conversion pass starts from."""

    app_id: str
    spec_kind: str
    spec_name: str
    #: Fields of FastTrack first races in the observed run — the initial
    #: established ground truth (the §5.4-sound reports).
    established: List[str] = field(default_factory=list)
    predicted_only: List[str] = field(default_factory=list)
    unwitnessed: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0


def run_baseline_job(job: BaselineJob) -> ConvertBaseline:
    """Observed-order prediction baseline (worker-process entry point)."""
    app_id, seed, rounds, policy, spec_kind = job
    t_start = time.perf_counter()
    app = get_application(app_id)
    spec = _build_spec(app, spec_kind, rounds, seed, policy)
    report = predict_app(app, spec, seed=seed, policy=policy)
    established = sorted(
        {f.field_name for f in report.ft_first if f is not None}
    )
    return ConvertBaseline(
        app_id=app.app_id,
        spec_kind=spec_kind,
        spec_name=report.spec_name,
        established=established,
        predicted_only=report.predicted_only_fields,
        unwitnessed=report.unwitnessed_fields,
        elapsed_s=time.perf_counter() - t_start,
    )


@dataclass
class DirectedRun:
    """FastTrack's race-report sequences under one directed schedule."""

    app_id: str
    spec_kind: str
    directed_seed: int
    policy_spec: str
    #: Per test: the fields of FastTrack's reports, in report order.
    sequences: List[Tuple[str, List[str]]] = field(default_factory=list)
    elapsed_s: float = 0.0


def run_convert_job(job: ConvertJob) -> DirectedRun:
    """Run one directed schedule (worker-process entry point)."""
    app_id, seed, dseed, rounds, spec_kind, policy, targets = job
    t_start = time.perf_counter()
    app = get_application(app_id)
    spec = _build_spec(app, spec_kind, rounds, seed, policy)
    pspec = directed_spec(dseed, targets)
    options = RunOptions(seed=seed, run_id=0, schedule_policy=pspec)
    executions = run_application(app, options)
    sequences = [
        (
            execution.test_name,
            [r.field_name for r in analyze_run(execution.log, spec).races],
        )
        for execution in executions
    ]
    return DirectedRun(
        app_id=app.app_id,
        spec_kind=spec_kind,
        directed_seed=dseed,
        policy_spec=pspec,
        sequences=sequences,
        elapsed_s=time.perf_counter() - t_start,
    )


@dataclass
class TargetVerdict:
    """Conversion outcome for one schedule-search target."""

    target: str          # as given (may carry "[read/write]" kinds)
    field_name: str      # the bare qualified field
    converted: bool
    #: Evidence of the converting run (None when flagged).
    directed_seed: Optional[int] = None
    policy_spec: Optional[str] = None
    test_name: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def cascade_conversions(
    established: Iterable[str],
    targets: Iterable[str],
    runs: Iterable[DirectedRun],
) -> List[TargetVerdict]:
    """Apply the rolling soundness horizon over directed runs.

    Walks every run's report sequence; a pending target converts when
    each report before its own is established, and immediately joins the
    established set.  Iterates to a fixpoint so conversion order does
    not depend on which run the scheduler happened to finish first.
    """
    field_of = {t: parse_target(t)[0] for t in targets}
    known = set(established)
    verdicts: Dict[str, TargetVerdict] = {}
    ordered_runs = sorted(
        runs, key=lambda r: (r.directed_seed, r.policy_spec)
    )
    changed = True
    while changed:
        changed = False
        for run in ordered_runs:
            for test_name, sequence in run.sequences:
                sound = True
                for field_name in sequence:
                    if field_name in known:
                        continue
                    pending = [
                        t
                        for t, f in field_of.items()
                        if f == field_name and t not in verdicts
                    ]
                    if sound and pending:
                        for t in pending:
                            verdicts[t] = TargetVerdict(
                                target=t,
                                field_name=field_name,
                                converted=True,
                                directed_seed=run.directed_seed,
                                policy_spec=run.policy_spec,
                                test_name=test_name,
                            )
                        known.add(field_name)
                        changed = True
                        continue
                    # An unestablished non-target report: everything
                    # after it in this run is past the sound horizon.
                    break
    return [
        verdicts.get(
            t, TargetVerdict(target=t, field_name=f, converted=False)
        )
        for t, f in sorted(field_of.items())
    ]


@dataclass
class ConvertConfig:
    """Knobs of one conversion pass."""

    app_ids: List[str] = field(default_factory=list)
    #: Directed schedules (seeds) per app × spec.
    schedules: int = 4
    #: Kernel seed of both the observed baseline and the directed runs.
    base_seed: int = 0
    directed_base_seed: int = 0
    #: SherLock inference rounds (spec_kind="sherlock" only).
    rounds: int = 3
    #: Schedule policy of the observed baseline run.
    policy: str = "random"
    specs: Tuple[str, ...] = ("manual",)
    #: Execution-engine spec for the job fan-out ("serial" |
    #: "process[:N]"; ``None`` means serial).  Ignored when the caller
    #: passes its own runtime.
    engine: Optional[str] = None
    #: Explicit targets per app id (e.g. from
    #: ``CampaignReport.schedule_targets()``); apps not listed derive
    #: their targets from the baseline's predicted-only + unwitnessed
    #: fields.
    targets: Optional[Dict[str, List[str]]] = None

    def validate(self) -> None:
        """Read-only sanity checks (never mutates the config)."""
        if self.schedules < 1:
            raise ValueError("schedules must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not self.app_ids:
            raise ValueError("conversion needs at least one app id")
        for kind in self.specs:
            if kind not in ("manual", "sherlock"):
                raise ValueError(f"unknown spec kind {kind!r}")
        if self.engine is not None:
            parse_engine_spec(self.engine)
        for app_id in self.app_ids:
            resolve_app_id(app_id)
        for targets in (self.targets or {}).values():
            for target in targets:
                parse_target(target)
        SherlockConfig(schedule_policy=self.policy)  # spec check

    def resolved(self) -> "ConvertConfig":
        """Validated copy with app aliases resolved (pure)."""
        self.validate()
        resolved_targets = (
            {
                resolve_app_id(a): sorted(ts)
                for a, ts in self.targets.items()
            }
            if self.targets is not None
            else None
        )
        return replace(
            self,
            app_ids=[resolve_app_id(a) for a in self.app_ids],
            targets=resolved_targets,
        )


@dataclass
class ConvertRow:
    """One app × spec conversion verdict set."""

    app_id: str
    spec_kind: str
    spec_name: str
    established: List[str] = field(default_factory=list)
    verdicts: List[TargetVerdict] = field(default_factory=list)
    directed_runs: int = 0
    elapsed_s: float = 0.0

    @property
    def converted(self) -> List[TargetVerdict]:
        return [v for v in self.verdicts if v.converted]

    @property
    def flagged(self) -> List[TargetVerdict]:
        """Never-converted targets: candidate false predictions."""
        return [v for v in self.verdicts if not v.converted]

    def to_dict(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "spec_kind": self.spec_kind,
            "spec_name": self.spec_name,
            "established": self.established,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "converted": len(self.converted),
            "flagged": [v.target for v in self.flagged],
            "directed_runs": self.directed_runs,
            "elapsed_s": round(self.elapsed_s, 3),
        }


@dataclass
class ConvertReport:
    """Aggregated conversion pass."""

    config: ConvertConfig
    rows: List[ConvertRow]
    metrics: RunMetrics = field(default_factory=RunMetrics)
    elapsed_s: float = 0.0
    #: Spec of the engine that ran the jobs (e.g. ``"process:4"``),
    #: taken from the runtime, not from the config.
    engine: str = "serial"

    @property
    def total_targets(self) -> int:
        return sum(len(r.verdicts) for r in self.rows)

    @property
    def total_converted(self) -> int:
        return sum(len(r.converted) for r in self.rows)

    @property
    def total_flagged(self) -> int:
        return sum(len(r.flagged) for r in self.rows)

    def planted_unconverted(self) -> List[Tuple[str, str]]:
        """(app_id, target) pairs planted in ground truth yet never
        converted — the condition CI's convert-smoke gate fails on."""
        out: List[Tuple[str, str]] = []
        for row in self.rows:
            racy = get_application(row.app_id).ground_truth.racy_fields
            out.extend(
                (row.app_id, v.target)
                for v in row.flagged
                if v.field_name in racy
            )
        return out

    def exit_code(self, require_planted: bool = False) -> int:
        """0 unless ``require_planted`` and a planted target is flagged."""
        if require_planted and self.planted_unconverted():
            return 1
        return 0

    def table(self) -> TableResult:
        table = TableResult(
            title="Directed schedule search: predicted race conversion",
            headers=[
                "App", "Spec", "Targets", "Converted", "Flagged",
                "Runs", "Candidate false predictions",
            ],
        )
        for row in self.rows:
            table.add_row(
                row.app_id,
                row.spec_name,
                len(row.verdicts),
                len(row.converted),
                len(row.flagged),
                row.directed_runs,
                ", ".join(v.target for v in row.flagged) or "-",
            )
        table.notes.append(
            "Converted: target raced in a directed run with every "
            "earlier report already established (rolling §5.4 horizon)"
        )
        table.notes.append(
            "Flagged: no directed schedule converted the target — "
            "candidate false prediction"
        )
        return table

    def summary(self) -> str:
        lines = [
            f"conversion pass: {self.total_targets} target(s) over "
            f"{len(self.config.app_ids)} app(s), "
            f"{self.config.schedules} directed schedule(s) each, "
            f"kernel seed {self.config.base_seed}"
        ]
        for row in self.rows:
            lines.append(
                f"  {row.app_id} [{row.spec_name}]: "
                f"{len(row.converted)}/{len(row.verdicts)} converted"
                + (
                    f", flagged: "
                    f"{', '.join(v.target for v in row.flagged)}"
                    if row.flagged
                    else ""
                )
            )
        lines.append(
            f"  RESULT: {self.total_converted} converted, "
            f"{self.total_flagged} candidate false prediction(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": {
                "app_ids": self.config.app_ids,
                "schedules": self.config.schedules,
                "base_seed": self.config.base_seed,
                "directed_base_seed": self.config.directed_base_seed,
                "rounds": self.config.rounds,
                "policy": self.config.policy,
                "specs": list(self.config.specs),
                "engine": self.engine,
                "targets": self.config.targets,
            },
            "totals": {
                "targets": self.total_targets,
                "converted": self.total_converted,
                "flagged": self.total_flagged,
                "planted_unconverted": [
                    list(pair) for pair in self.planted_unconverted()
                ],
                "elapsed_s": round(self.elapsed_s, 3),
            },
            "rows": [r.to_dict() for r in self.rows],
        }


def run_conversion(
    config: ConvertConfig,
    runtime: Optional[ExecutionRuntime] = None,
) -> ConvertReport:
    """Execute a conversion pass, optionally on a caller-owned runtime.

    Stage 1 runs one observed baseline per app × spec (prediction +
    FastTrack first races); stage 2 fans the directed schedules over
    the runtime's engine; the cascade then assigns verdicts.
    """
    config = config.resolved()
    t_start = time.perf_counter()
    baseline_jobs: List[BaselineJob] = [
        (app_id, config.base_seed, config.rounds, config.policy, kind)
        for app_id in config.app_ids
        for kind in config.specs
    ]
    owned = runtime is None
    rt = runtime or ExecutionRuntime(engine=config.engine)
    try:
        baselines = rt.map_jobs(run_baseline_job, baseline_jobs)
        targets_of: Dict[Tuple[str, str], List[str]] = {}
        directed_jobs: List[ConvertJob] = []
        for baseline in baselines:
            explicit = (config.targets or {}).get(baseline.app_id)
            targets = sorted(
                explicit
                if explicit
                else {*baseline.predicted_only, *baseline.unwitnessed}
            )
            targets_of[(baseline.app_id, baseline.spec_kind)] = targets
            if not targets:
                continue
            directed_jobs.extend(
                (
                    baseline.app_id,
                    config.base_seed,
                    config.directed_base_seed + i,
                    config.rounds,
                    baseline.spec_kind,
                    config.policy,
                    tuple(targets),
                )
                for i in range(config.schedules)
            )
        runs = rt.map_jobs(run_convert_job, directed_jobs)
    finally:
        if owned:
            rt.close()

    rows: List[ConvertRow] = []
    for baseline in baselines:
        key = (baseline.app_id, baseline.spec_kind)
        app_runs = [
            r
            for r in runs
            if (r.app_id, r.spec_kind) == key
        ]
        verdicts = cascade_conversions(
            baseline.established, targets_of[key], app_runs
        )
        rows.append(
            ConvertRow(
                app_id=baseline.app_id,
                spec_kind=baseline.spec_kind,
                spec_name=baseline.spec_name,
                established=baseline.established,
                verdicts=verdicts,
                directed_runs=len(app_runs),
                elapsed_s=baseline.elapsed_s
                + sum(r.elapsed_s for r in app_runs),
            )
        )
    report = ConvertReport(
        config=config,
        rows=rows,
        elapsed_s=time.perf_counter() - t_start,
        engine=rt.engine.spec,
    )
    report.metrics.convert_targets = report.total_targets
    report.metrics.convert_converted = report.total_converted
    report.metrics.convert_flagged = report.total_flagged
    report.metrics.convert_runs = len(runs)
    report.metrics.workers = rt.engine.concurrency
    return report


__all__ = [
    "BaselineJob",
    "ConvertBaseline",
    "ConvertConfig",
    "ConvertJob",
    "ConvertReport",
    "ConvertRow",
    "DirectedRun",
    "TargetVerdict",
    "cascade_conversions",
    "run_baseline_job",
    "run_conversion",
    "run_convert_job",
]
