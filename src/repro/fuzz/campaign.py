"""Schedule-fuzzing campaigns.

A campaign sweeps scheduler seeds for one or more apps: each *schedule*
is one full Observer → Solver → Perturber pipeline run under a distinct
``(seed, policy)``, with every observed trace fed through the
:mod:`~repro.fuzz.sanitizer` and the final report through the
:mod:`~repro.fuzz.oracles`.  Schedules fan out across an
:class:`~repro.runtime.engine.ExecutionRuntime` engine (``engine``),
and a *permutation pass* re-executes a sample of
schedules in reverse order afterwards, checking that trace digests and
serialized reports come back byte-identical (runs must not leak state
into each other, and report content must not depend on campaign order).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..apps.registry import get_application, resolve_app_id
from ..core.config import SherlockConfig
from ..core.pipeline import Sherlock
from ..core.serialize import report_to_dict
from ..runtime.engine import ExecutionRuntime
from ..runtime.engines import parse_engine_spec
from ..sim.runner import TestExecution
from .oracles import (
    OracleResult,
    ground_truth_oracle,
    lambda_stability_oracle,
    predicted_unwitnessed_oracle,
)
from .sanitizer import TraceSanitizer, Violation, trace_digest

#: One schedule job: (app_id, seed, rounds, policy, lam_tolerance,
#: run_oracles).  Plain data so it crosses the process-pool boundary.
ScheduleJob = Tuple[str, int, int, str, float, bool]


@dataclass
class CampaignConfig:
    """Knobs of one fuzz campaign."""

    app_ids: List[str] = field(default_factory=list)
    schedules: int = 25
    base_seed: int = 0
    #: Rounds per schedule; 3 is the paper default (App-5 in particular
    #: only converges on true syncs after the third round's feedback).
    rounds: int = 3
    policy: str = "random"
    #: Execution-engine spec for the schedule fan-out ("serial" |
    #: "process[:N]"; ``None`` means serial).  Ignored when the caller
    #: passes its own runtime.
    engine: Optional[str] = None
    #: λ-stability probe half-width (±fraction of config.lam).  ±1% is
    #: the empirically stable band across all 8 apps at rounds=3; App-4
    #: and App-8 carry LP probabilities near the 0.9 threshold, so wider
    #: bands flip borderline candidates (recorded as oracle failures).
    lam_tolerance: float = 0.01
    #: Every Nth schedule joins the permutation replay pass (0 disables).
    replay_every: int = 5
    oracles: bool = True

    def validate(self) -> None:
        """Read-only sanity checks — never mutates the config, so a
        caller's ``CampaignConfig`` serializes exactly as passed and
        ``validate()`` is idempotent by inspection."""
        if self.schedules < 1:
            raise ValueError("schedules must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.replay_every < 0:
            raise ValueError("replay_every must be >= 0")
        if not self.app_ids:
            raise ValueError("campaign needs at least one app id")
        if self.engine is not None:
            parse_engine_spec(self.engine)
        # Resolves aliases eagerly so typos fail before any execution
        # (result discarded: resolution itself happens in resolved()).
        for app_id in self.app_ids:
            resolve_app_id(app_id)
        SherlockConfig(schedule_policy=self.policy)  # spec check

    def resolved(self) -> "CampaignConfig":
        """Validated copy with app aliases resolved (pure)."""
        self.validate()
        return replace(
            self, app_ids=[resolve_app_id(a) for a in self.app_ids]
        )


@dataclass
class ScheduleResult:
    """Outcome of one fuzzed schedule (picklable)."""

    app_id: str
    seed: int
    policy: str
    trace_digest: str
    report_digest: str
    inferred: List[str]
    events_observed: int
    executions: int
    violations: List[Dict[str, Any]] = field(default_factory=list)
    oracles: List[Dict[str, Any]] = field(default_factory=list)
    test_errors: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def oracle_failures(self) -> List[Dict[str, Any]]:
        return [o for o in self.oracles if not o["passed"]]

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def run_schedule_job(job: ScheduleJob) -> ScheduleResult:
    """Run one schedule end to end (the worker-process entry point)."""
    app_id, seed, rounds, policy, lam_tolerance, run_oracles = job
    t_start = time.perf_counter()
    app = get_application(app_id)
    config = SherlockConfig(
        rounds=rounds, seed=seed, schedule_policy=policy
    )
    collected: List[TestExecution] = []
    sherlock = Sherlock(
        app,
        config,
        round_listener=lambda _round, execs: collected.extend(execs),
    )
    report = sherlock.run()

    sanitizer = TraceSanitizer(
        near=config.near, window_cap=config.window_cap
    )
    violations: List[Violation] = []
    for execution in collected:
        violations.extend(sanitizer.sanitize(execution))

    oracle_results: List[OracleResult] = []
    if run_oracles:
        oracle_results.append(ground_truth_oracle(app, report))
        oracle_results.append(
            lambda_stability_oracle(report, tolerance=lam_tolerance)
        )
        oracle_results.append(
            predicted_unwitnessed_oracle(app, report, collected)
        )

    report_json = json.dumps(report_to_dict(report), sort_keys=True)
    return ScheduleResult(
        app_id=app_id,
        seed=seed,
        policy=policy,
        trace_digest=trace_digest(collected),
        report_digest=hashlib.sha256(
            report_json.encode("utf-8")
        ).hexdigest(),
        inferred=sorted(s.display() for s in report.final.syncs),
        events_observed=sum(len(e.log) for e in collected),
        executions=len(collected),
        violations=[v.to_dict() for v in violations],
        oracles=[o.to_dict() for o in oracle_results],
        test_errors=sorted(
            {err for r in report.rounds for err in r.test_errors}
        ),
        elapsed_s=time.perf_counter() - t_start,
    )


@dataclass
class CampaignReport:
    """Aggregated result of one campaign."""

    config: CampaignConfig
    results: List[ScheduleResult]
    #: (app_id, seed) pairs whose permuted replay did not reproduce the
    #: original trace digest + report digest.
    permutation_mismatches: List[Dict[str, Any]] = field(
        default_factory=list
    )
    permutation_sampled: int = 0
    elapsed_s: float = 0.0
    #: Spec of the engine that ran the jobs (e.g. ``"process:4"``),
    #: taken from the runtime, not from the config.
    engine: str = "serial"

    # -- aggregate views -----------------------------------------------------

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    @property
    def total_oracle_failures(self) -> int:
        """Failed oracle checks only — permutation mismatches are a
        separate counter (``total_permutation_mismatches``), never
        folded in here."""
        return sum(len(r.oracle_failures) for r in self.results)

    @property
    def total_permutation_mismatches(self) -> int:
        return len(self.permutation_mismatches)

    def ok(self, strict: bool = False) -> bool:
        """The campaign verdict.

        Non-strict: no sanitizer violations and no permutation-replay
        mismatches.  ``strict=True`` additionally requires every oracle
        to have passed — the single source of truth for the CLI's
        ``--strict`` exit path.
        """
        if self.total_violations or self.permutation_mismatches:
            return False
        if strict and self.total_oracle_failures:
            return False
        return True

    def exit_code(self, strict: bool = False) -> int:
        """Process exit status for this verdict (0 pass, 1 fail)."""
        return 0 if self.ok(strict=strict) else 1

    def schedule_targets(self) -> Dict[str, List[str]]:
        """Predicted-but-unwitnessed races per app: prioritized targets
        for the next campaign's schedule search (field + access kinds,
        stable across worker processes)."""
        out: Dict[str, List[str]] = {}
        for app_id in self.config.app_ids:
            targets = {
                t
                for r in self.results
                if r.app_id == app_id
                for o in r.oracles
                if o["name"] == "predicted-unwitnessed"
                for t in o["data"].get("targets", [])
            }
            if targets:
                out[app_id] = sorted(targets)
        return out

    def per_app(self) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        targets = self.schedule_targets()
        for app_id in self.config.app_ids:
            rows = [r for r in self.results if r.app_id == app_id]
            sync_freq: Dict[str, int] = {}
            for r in rows:
                for sync in r.inferred:
                    sync_freq[sync] = sync_freq.get(sync, 0) + 1
            out[app_id] = {
                "schedules": len(rows),
                "violations": sum(len(r.violations) for r in rows),
                "oracle_failures": sum(
                    len(r.oracle_failures) for r in rows
                ),
                "distinct_inferred_sets": len(
                    {tuple(r.inferred) for r in rows}
                ),
                "distinct_traces": len({r.trace_digest for r in rows}),
                "sync_frequency": dict(
                    sorted(sync_freq.items(), key=lambda kv: -kv[1])
                ),
                "race_targets": targets.get(app_id, []),
            }
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": {**asdict(self.config), "engine": self.engine},
            "totals": {
                "schedules": len(self.results),
                "violations": self.total_violations,
                "oracle_failures": self.total_oracle_failures,
                "permutation_sampled": self.permutation_sampled,
                "permutation_mismatches": self.total_permutation_mismatches,
                "elapsed_s": round(self.elapsed_s, 3),
                "ok": self.ok(),
                "strict_ok": self.ok(strict=True),
            },
            "apps": self.per_app(),
            "schedule_targets": self.schedule_targets(),
            "schedules": [r.to_dict() for r in self.results],
            "permutation_mismatches": self.permutation_mismatches,
        }

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: {len(self.results)} schedules over "
            f"{len(self.config.app_ids)} app(s), policy="
            f"{self.config.policy}, rounds={self.config.rounds}, "
            f"engine={self.engine}"
        ]
        for app_id, row in self.per_app().items():
            lines.append(
                f"  {app_id}: {row['schedules']} schedules, "
                f"{row['violations']} sanitizer violations, "
                f"{row['oracle_failures']} oracle failures, "
                f"{row['distinct_traces']} distinct traces, "
                f"{row['distinct_inferred_sets']} distinct inferred sets, "
                f"{len(row['race_targets'])} predicted race target(s)"
            )
        lines.append(
            f"  permutation replay: {self.permutation_sampled} sampled, "
            f"{len(self.permutation_mismatches)} mismatches"
        )
        lines.append(
            "  RESULT: "
            + ("OK" if self.ok() else "VIOLATIONS FOUND")
            + (
                f" ({self.total_oracle_failures} oracle failures; "
                "strict verdict FAIL)"
                if self.total_oracle_failures
                else ""
            )
        )
        return "\n".join(lines)


def run_campaign(
    config: CampaignConfig,
    runtime: Optional[ExecutionRuntime] = None,
) -> CampaignReport:
    """Execute a fuzz campaign, optionally on a caller-owned runtime."""
    config = config.resolved()
    t_start = time.perf_counter()
    jobs: List[ScheduleJob] = [
        (
            app_id,
            config.base_seed + i,
            config.rounds,
            config.policy,
            config.lam_tolerance,
            config.oracles,
        )
        for app_id in config.app_ids
        for i in range(config.schedules)
    ]

    owned = runtime is None
    rt = runtime or ExecutionRuntime(engine=config.engine)
    try:
        results = rt.map_jobs(run_schedule_job, jobs)
        # Permutation pass: replay a sample in reverse order; equivalent
        # schedules must reproduce identical traces and reports.
        mismatches: List[Dict[str, Any]] = []
        sample: List[Tuple[ScheduleJob, ScheduleResult]] = []
        if config.replay_every:
            sample = list(zip(jobs, results))[:: config.replay_every]
        replayed = rt.map_jobs(
            run_schedule_job, [job for job, _ in reversed(sample)]
        )
        for (job, original), replay in zip(reversed(sample), replayed):
            if (
                replay.trace_digest != original.trace_digest
                or replay.report_digest != original.report_digest
            ):
                mismatches.append(
                    {
                        "app_id": original.app_id,
                        "seed": original.seed,
                        "trace_match": replay.trace_digest
                        == original.trace_digest,
                        "report_match": replay.report_digest
                        == original.report_digest,
                    }
                )
    finally:
        if owned:
            rt.close()

    return CampaignReport(
        config=config,
        results=results,
        permutation_mismatches=mismatches,
        permutation_sampled=len(sample),
        elapsed_s=time.perf_counter() - t_start,
        engine=rt.engine.spec,
    )


__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "ScheduleJob",
    "ScheduleResult",
    "run_campaign",
    "run_schedule_job",
]
