"""Cache-aware execution runtime over a pluggable engine.

The runtime owns *whether* an application's unit tests get executed for
one observed round — consulting a
:class:`~repro.runtime.cache.TraceCache` first and replaying the round
without executing anything on a hit — and delegates *how* they execute
to a pluggable :class:`~repro.runtime.engines.Engine`: serially
in-process or fanned out across a process pool
(``engine="serial" | "process"``).

Determinism is the contract: engines may change how fast traces are
produced, never what is inferred — serial, process, and cached runs
yield byte-identical serialized reports (see
:mod:`repro.runtime.engines`).

:meth:`~ExecutionRuntime.observe_round` is the one round body.  The
pipeline awaits :meth:`~ExecutionRuntime.aobserve_round`, which runs
that body in a worker thread so cache disk I/O and the engine's work
stay off the event loop.  :meth:`~ExecutionRuntime.map_jobs` fans out
whole jobs for callers without a loop (the fuzz, predict and convert
fan-outs).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..core.config import SherlockConfig
from ..sim.program import Application
from ..sim.runner import TestExecution
from .cache import DelayPlan, TraceCache, round_key
from .engines import (
    EngineSpec,
    coerce_engine,
    execute_test_payload,  # noqa: F401  (re-export: worker entry point)
)


@dataclass
class ObserveOutcome:
    """One observed round plus where its traces came from."""

    executions: List[TestExecution] = field(default_factory=list)
    cache_hit: bool = False
    #: Worker count that actually executed the round (1 on cache hits and
    #: serial/fallback paths).
    workers_used: int = 1
    #: Name of the engine that produced the round ("cache" on hits).
    engine: str = "serial"

    @property
    def events_observed(self) -> int:
        return sum(len(e.log) for e in self.executions)


class ExecutionRuntime:
    """Shared execution runtime: pluggable engine + trace cache.

    One runtime can serve many :class:`~repro.core.pipeline.Sherlock`
    instances (the experiment regenerators share one across all 8 apps),
    amortizing pool start-up and letting every caller reuse cached
    rounds.

    Lifecycle: ``close()`` is idempotent; once closed, submitting work
    raises ``RuntimeError`` immediately instead of hanging on a dead
    pool.  A ``KeyboardInterrupt``/``SystemExit`` escaping mid-round
    tears the engine down before propagating, so no worker processes
    outlive an aborted run.
    """

    def __init__(
        self,
        *,
        engine: EngineSpec = None,
        cache: Optional[TraceCache] = None,
    ) -> None:
        self.engine = coerce_engine(engine)
        self.cache = cache
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    # -- core API ------------------------------------------------------------

    def observe_round(
        self,
        app: Application,
        config: SherlockConfig,
        round_index: int,
        delay_plan: Optional[DelayPlan] = None,
    ) -> ObserveOutcome:
        """Traces for one round: cached if seen before, else executed."""
        self._check_open()
        plan = dict(delay_plan or {})
        key = self.round_key(app.app_id, config, round_index, plan)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return ObserveOutcome(cached, cache_hit=True, engine="cache")
        with self._teardown_on_interrupt():
            executions, workers_used = self.engine.execute_round(
                app, config, round_index, plan
            )
        if self.cache is not None:
            self.cache.put(key, executions)
        return ObserveOutcome(
            executions, workers_used=workers_used, engine=self.engine.name
        )

    async def aobserve_round(
        self,
        app: Application,
        config: SherlockConfig,
        round_index: int,
        delay_plan: Optional[DelayPlan] = None,
    ) -> ObserveOutcome:
        """:meth:`observe_round` in a worker thread, so the caller's
        event loop keeps running during the round (cache disk I/O
        included).  ``asyncio.to_thread`` copies the context, so counts
        the round records land in the caller's
        :func:`~repro.metrics.recording`; a cancel or interrupt at the
        await still tears the engine down."""
        with self._teardown_on_interrupt():
            return await asyncio.to_thread(
                self.observe_round, app, config, round_index, delay_plan
            )

    @staticmethod
    def round_key(
        app_id: str,
        config: SherlockConfig,
        round_index: int,
        delay_plan: Optional[DelayPlan],
    ) -> str:
        """Cache key of one round (only trace-determining fields —
        engine choice deliberately excluded)."""
        return round_key(
            app_id=app_id,
            seed=config.seed,
            op_cost=config.op_cost,
            max_steps=config.max_steps,
            delay_plan=delay_plan,
            round_index=round_index,
            schedule_policy=config.schedule_policy,
        )

    # -- generic fan-out -----------------------------------------------------

    def map_jobs(
        self, fn: Callable[[Any], Any], payloads: List[Any]
    ) -> List[Any]:
        """Run ``fn`` over ``payloads`` on the engine, in order.

        The campaign-level counterpart of :meth:`observe_round`'s
        per-test fan-out: for the process engine ``fn`` must be a
        module-level function and every payload picklable.  Callers
        always get one result per payload, in submission order.
        """
        self._check_open()
        with self._teardown_on_interrupt():
            return self.engine.map_jobs(fn, payloads)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the engine down (idempotent; the cache stays usable)."""
        if self._closed:
            return
        self._closed = True
        self.engine.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "ExecutionRuntime is closed; create a new runtime (a "
                "`with ExecutionRuntime(...)` block only spans its body)"
            )

    def _teardown_on_interrupt(self) -> "_TeardownOnInterrupt":
        return _TeardownOnInterrupt(self)

    def __enter__(self) -> "ExecutionRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ExecutionRuntime(engine={self.engine!r}, "
            f"cache={self.cache!r})"
        )


class _TeardownOnInterrupt:
    """Tear the engine down when an *interrupt-class* exception escapes.

    Ordinary ``Exception``s (a failing unit test, a bad payload)
    propagate with the engine left healthy — a failing job must not
    poison the pool for later rounds (tested contract).  But a
    ``KeyboardInterrupt``/``SystemExit`` mid-fan-out used to leak live
    worker processes that hung interpreter shutdown; now the runtime
    closes itself before re-raising.
    """

    def __init__(self, runtime: ExecutionRuntime) -> None:
        self._runtime = runtime

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc is not None and not isinstance(exc, Exception):
            self._runtime.close()
        return False


__all__ = ["ExecutionRuntime", "ObserveOutcome", "execute_test_payload"]
