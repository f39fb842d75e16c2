"""The SherLock pipeline: Observer → Solver → Perturber, over rounds (§4.3).

One :class:`Sherlock` instance runs an application's test suite for N
rounds.  Observations accumulate across rounds; after each round the
Solver re-infers and the Perturber converts the inferred releases into the
next round's delay plan.  No delay is injected in the first round.

Test execution is delegated to an
:class:`~repro.runtime.engine.ExecutionRuntime`, which may fan tests out
across a process pool and/or replay rounds from a trace cache.  Pass
one as ``Sherlock(runtime=...)``; without one the runtime is serial and
cache-less.  The pipeline itself is asyncio-native — :meth:`Sherlock.arun` is the
implementation, :meth:`Sherlock.run` a synchronous façade over it — and
each round runs inside one :func:`~repro.metrics.recording`, whose
:class:`~repro.metrics.RunMetrics` (per-phase timings, cache, LP and
engine counters, each counted where the work happens) becomes the
round's ``metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..metrics import RunMetrics, count, recording, timed
from ..runtime._sync import _run_sync
from ..runtime.engine import ExecutionRuntime
from ..sim.program import Application
from ..sim.runner import TestExecution
from ..trace.optypes import OpRef
from .config import SherlockConfig
from .encoder import IncrementalEncoder
from .observer import Observer
from .perturber import build_delay_plan
from .solver import InferenceResult, infer
from .stats import ObservationStore
from .windows import WindowExtractor


@dataclass
class RoundResult:
    """Summary of one round."""

    round_index: int
    inference: InferenceResult
    windows_total: int
    racy_pairs_total: int
    events_observed: int
    delays_injected: int
    test_errors: List[str] = field(default_factory=list)
    #: Phase timings and cache counters (observability only; excluded
    #: from serialized reports so runs stay byte-comparable).
    metrics: Optional[RunMetrics] = None


@dataclass
class SherlockReport:
    """Full result of a SherLock run over an application."""

    app_id: str
    app_name: str
    config: SherlockConfig
    rounds: List[RoundResult]
    store: ObservationStore

    @property
    def final(self) -> InferenceResult:
        return self.rounds[-1].inference

    @property
    def inferred(self) -> frozenset:
        return frozenset(self.final.syncs)

    @property
    def metrics(self) -> RunMetrics:
        """Aggregate phase timings and cache counters over all rounds."""
        return RunMetrics.aggregate(
            r.metrics for r in self.rounds if r.metrics is not None
        )

    def inferred_by_round(self) -> List[frozenset]:
        return [frozenset(r.inference.syncs) for r in self.rounds]

    def describe(self) -> str:
        final = self.final
        stats = self.store.stats()
        return (
            f"{self.app_id} ({self.app_name}): "
            f"{len(final.releases)} releases + {len(final.acquires)} "
            f"acquires after {len(self.rounds)} rounds "
            f"({stats['windows']} windows, "
            f"{stats['racy_pairs']} racy pairs)"
        )


class Sherlock:
    """Unsupervised synchronization-operation inference for one app."""

    def __init__(
        self,
        app: Application,
        config: Optional[SherlockConfig] = None,
        runtime: Optional[ExecutionRuntime] = None,
        round_listener: Optional[
            Callable[[int, List[TestExecution]], None]
        ] = None,
    ) -> None:
        self.app = app
        self.config = config or SherlockConfig()
        self.config.validate()
        self.runtime = runtime or ExecutionRuntime()
        self.observer = Observer(self.config)
        #: Called with ``(round_index, executions)`` after each observed
        #: round — the hook ``repro.fuzz`` uses to sanitize raw traces
        #: without re-running anything.
        self.round_listener = round_listener

    def run(self, rounds: Optional[int] = None) -> SherlockReport:
        """Run the full multi-round pipeline and return the report.

        Synchronous façade over :meth:`arun` — callers need no event
        loop (and may even hold a running one: the pipeline then runs on
        a private loop in a helper thread).  ``rounds`` overrides the
        configured round count by deriving a ``config.without(rounds=...)``
        copy, so ``report.config.rounds`` always matches the number of
        rounds that actually ran.
        """
        return _run_sync(self.arun(rounds=rounds))

    async def arun(self, rounds: Optional[int] = None) -> SherlockReport:
        """Async-native pipeline: awaits round observation (cache I/O
        and job fan-out run off the event loop), keeping the
        CPU-bound extract/solve/perturb stages inline.  Byte-identical
        results to :meth:`run` — it *is* :meth:`run`."""
        config = self.config
        if rounds is not None and rounds != config.rounds:
            config = config.without(rounds=rounds)
        store = ObservationStore()
        delay_plan: Dict[OpRef, float] = {}
        round_results: List[RoundResult] = []
        encoder = IncrementalEncoder(config)

        for round_index in range(config.rounds):
            with recording() as metrics:
                with timed("observe_s"):
                    outcome = await self.runtime.aobserve_round(
                        self.app, config, round_index, delay_plan
                    )
                    executions = outcome.executions
                    if self.round_listener is not None:
                        self.round_listener(round_index, executions)
                count("cache_hits" if outcome.cache_hit else "cache_misses")
                count("tests_executed", len(executions))
                count("events_observed", outcome.events_observed)
                count("workers", outcome.workers_used)
                with timed("extract_s"):
                    if not config.accumulate_across_runs:
                        store = ObservationStore()
                    self._ingest(store, executions, config)
                inference = infer(store, config, encoder=encoder)
                with timed("perturb_s"):
                    delay_plan = build_delay_plan(inference, config)
            round_results.append(
                RoundResult(
                    round_index=round_index,
                    inference=inference,
                    windows_total=len(store.windows),
                    racy_pairs_total=len(store.racy_pairs),
                    events_observed=outcome.events_observed,
                    delays_injected=sum(
                        len(e.log.delays) for e in executions
                    ),
                    test_errors=[
                        e.error for e in executions if e.error is not None
                    ],
                    metrics=metrics,
                )
            )
        return SherlockReport(
            app_id=self.app.app_id,
            app_name=self.app.name,
            config=config,
            rounds=round_results,
            store=store,
        )

    def _ingest(
        self,
        store: ObservationStore,
        executions: List[TestExecution],
        config: Optional[SherlockConfig] = None,
    ) -> None:
        config = config or self.config
        extractor = WindowExtractor(
            near=config.near,
            window_cap=config.window_cap,
            refine=config.enable_window_refinement,
        )
        for execution in executions:
            windows = extractor.extract(execution.log)
            store.ingest_run(execution.log, windows)


__all__ = ["RoundResult", "Sherlock", "SherlockReport"]
