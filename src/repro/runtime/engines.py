"""Pluggable execution engines: serial and process-pool.

An :class:`Engine` owns *how* unit-test jobs get executed — the
:class:`~repro.runtime.engine.ExecutionRuntime` owns *whether* they run at
all (trace-cache consultation) and wires an engine into the pipeline.
Two implementations ship:

* :class:`SerialEngine` — in-process, one job at a time (the default);
* :class:`ProcessEngine` — fan-out across a
  ``concurrent.futures.ProcessPoolExecutor`` with a serial fallback when
  the pool is unavailable (sandbox, OOM).

Determinism is the shared contract.  Every unit test runs on a fresh
kernel seeded by ``(config.seed, test qname, round index)`` alone and
per-test context objects are built fresh per execution, so serial and
process runs yield byte-identical serialized reports (absolute heap-object
ids differ across processes, but SherLock only ever compares ids within
one test's trace and never serializes them).

The interface is synchronous (``execute_round`` / ``map_jobs``): the
simulator is CPU-bound pure Python, so running jobs as asyncio tasks
buys nothing under the GIL.  The one async surface is
:meth:`~repro.runtime.engine.ExecutionRuntime.aobserve_round`, which
runs the runtime's synchronous round in a worker thread.

An engine is chosen by a spec: ``None`` or ``"serial"``, or
``"process[:N]"`` (an unsized pool takes ``os.cpu_count()`` workers).
"""

from __future__ import annotations

import os
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from ..apps.registry import get_application, resolve_app_id
from ..core.config import SherlockConfig
from ..core.observer import Observer
from ..metrics import count
from ..sim.program import Application
from ..sim.runner import RunOptions, TestExecution, run_unit_test
from .cache import DelayPlan, FrozenPlan, freeze_delay_plan, thaw_delay_plan

#: (app_id, config fields, round index, frozen plan, test qname)
WorkerPayload = Tuple[str, Dict[str, Any], int, FrozenPlan, str]

#: What an engine returns for one executed round.
RoundExecutions = Tuple[List[TestExecution], int]

#: Accepted ``engine=`` specs: ``None`` (serial), a spec string
#: ("serial" | "process[:N]"), or an Engine.
EngineSpec = Union[None, str, "Engine"]

_ENGINE_KINDS = ("serial", "process")


def execute_test_payload(payload: WorkerPayload) -> TestExecution:
    """Run one unit test from plain data (the worker entry point).

    Rebuilds the application, config, and delay plan from picklable
    primitives so nothing process-specific crosses the pool boundary,
    then executes the test exactly as the serial Observer path would.
    """
    app_id, config_kwargs, round_index, frozen_plan, test_qname = payload
    config = SherlockConfig(**config_kwargs)
    app = get_application(app_id)
    for test in app.tests:
        if test.qname == test_qname:
            break
    else:
        raise KeyError(f"{app_id} has no unit test {test_qname!r}")
    observer = Observer(config)
    options = RunOptions(
        seed=config.seed,
        run_id=round_index,
        op_cost=config.op_cost,
        delay_plan=thaw_delay_plan(frozen_plan),
        event_filter=observer.event_filter,
        max_steps=config.max_steps,
        schedule_policy=config.schedule_policy,
    )
    return run_unit_test(app, test, options)


def _app_registered(app: Application) -> bool:
    """True when ``app.app_id`` resolves to a registry builder, so jobs
    can rebuild a private instance from the id alone."""
    try:
        return resolve_app_id(app.app_id) == app.app_id
    except KeyError:
        return False


# -- the interface -----------------------------------------------------------


class Engine(ABC):
    """How jobs execute: one round's unit tests, or a generic fan-out.

    Contract:

    * ``execute_round`` returns one :class:`TestExecution` per
      ``app.tests`` entry, in test order, plus the worker count that
      actually executed the round;
    * ``map_jobs`` returns one result per payload, in submission order;
      a job exception propagates to the caller;
    * results are byte-identical to the serial path's — an engine may
      change how *fast* traces are produced, never what is inferred;
    * ``close`` is idempotent and the engine must stay safe to close on
      error paths (no hangs on dead workers).
    """

    name: ClassVar[str] = "abstract"

    #: Concurrent jobs this engine runs at most (1 for serial).
    @property
    def concurrency(self) -> int:
        return 1

    @abstractmethod
    def execute_round(
        self,
        app: Application,
        config: SherlockConfig,
        round_index: int,
        plan: DelayPlan,
    ) -> RoundExecutions:
        """Execute all unit tests of one round."""

    @abstractmethod
    def map_jobs(
        self, fn: Callable[[Any], Any], payloads: List[Any]
    ) -> List[Any]:
        """Run ``fn`` over ``payloads``, results in submission order."""

    @property
    def spec(self) -> str:
        """The spec string that names this engine as it runs (what job
        reports record), e.g. ``"serial"`` or ``"process:4"``."""
        return self.name

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release engine resources; safe to call more than once."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# -- serial ------------------------------------------------------------------


class SerialEngine(Engine):
    """In-process, one job at a time — the reference implementation."""

    name = "serial"

    def execute_round(
        self,
        app: Application,
        config: SherlockConfig,
        round_index: int,
        plan: DelayPlan,
    ) -> RoundExecutions:
        observer = Observer(config)
        executions = observer.observe_round(app, round_index, dict(plan))
        self._count(len(executions))
        return executions, 1

    def map_jobs(
        self, fn: Callable[[Any], Any], payloads: List[Any]
    ) -> List[Any]:
        results = [fn(payload) for payload in payloads]
        self._count(len(results))
        return results

    def _count(self, jobs: int) -> None:
        if jobs:
            count("engine_concurrency_hwm", 1)


# -- process pool ------------------------------------------------------------


class ProcessEngine(Engine):
    """Fan-out across a process pool, with a serial fallback.

    Only pool-level failures (``BrokenProcessPool``, ``OSError``: dead
    workers, sandbox, OOM) trigger the fallback and mark the pool broken;
    a job that raises propagates to the caller and the pool stays
    healthy — a failing test must not poison the pool for later rounds.
    """

    name = "process"

    def __init__(self, workers: int = 2) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: Optional[Executor] = None
        self._pool_broken = False

    @property
    def concurrency(self) -> int:
        return self.workers

    @property
    def spec(self) -> str:
        return f"process:{self.workers}"

    def execute_round(
        self,
        app: Application,
        config: SherlockConfig,
        round_index: int,
        plan: DelayPlan,
    ) -> RoundExecutions:
        if (
            self.workers > 1
            and len(app.tests) > 1
            and not self._pool_broken
            and _app_registered(app)
        ):
            parallel = self._execute_parallel(app, config, round_index, plan)
            if parallel is not None:
                self._count(len(parallel), self.workers)
                return parallel, self.workers
        observer = Observer(config)
        executions = observer.observe_round(app, round_index, dict(plan))
        self._count(len(executions), 1)
        return executions, 1

    def _execute_parallel(
        self,
        app: Application,
        config: SherlockConfig,
        round_index: int,
        plan: DelayPlan,
    ) -> Optional[List[TestExecution]]:
        frozen = freeze_delay_plan(plan)
        config_kwargs = asdict(config)
        payloads: List[WorkerPayload] = [
            (app.app_id, config_kwargs, round_index, frozen, test.qname)
            for test in app.tests
        ]
        try:
            pool = self._ensure_pool()
            # map() preserves submission order, so results line up with
            # app.tests exactly as the serial path's do.
            return list(pool.map(execute_test_payload, payloads))
        except (BrokenProcessPool, OSError) as exc:
            self._mark_broken(exc, stacklevel=4)
            return None

    def map_jobs(
        self, fn: Callable[[Any], Any], payloads: List[Any]
    ) -> List[Any]:
        if self.workers > 1 and len(payloads) > 1 and not self._pool_broken:
            try:
                pool = self._ensure_pool()
                results = list(pool.map(fn, payloads))
                self._count(len(results), self.workers)
                return results
            except (BrokenProcessPool, OSError) as exc:
                # Same contract as _execute_parallel: only pool-level
                # failures trigger the serial fallback; a payload that
                # raises propagates to the caller.
                self._mark_broken(exc, stacklevel=3)
        results = [fn(payload) for payload in payloads]
        self._count(len(results), 1)
        return results

    def _mark_broken(self, exc: BaseException, stacklevel: int) -> None:
        self._pool_broken = True
        self.close()
        warnings.warn(
            f"process pool unavailable ({type(exc).__name__}: {exc}); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=stacklevel + 1,
        )

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _count(self, jobs: int, used: int) -> None:
        if jobs:
            count("engine_concurrency_hwm", min(used, jobs))

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"ProcessEngine(workers={self.workers})"


# -- spec parsing ------------------------------------------------------------


def parse_engine_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split an engine spec string into ``(kind, concurrency)``.

    ``"serial" | "process[:N]"`` — raises ``ValueError`` on anything
    else.
    """
    if not isinstance(spec, str):
        raise TypeError(
            f"engine spec must be a string or Engine, got {type(spec).__name__}"
        )
    kind, sep, arg = spec.partition(":")
    if kind not in _ENGINE_KINDS:
        raise ValueError(
            f"unknown engine spec {spec!r}; choose from "
            f"{list(_ENGINE_KINDS)} (e.g. 'process:4')"
        )
    concurrency: Optional[int] = None
    if sep:
        if kind == "serial":
            raise ValueError("engine spec 'serial' takes no :N suffix")
        try:
            concurrency = int(arg)
        except ValueError:
            raise ValueError(
                f"engine spec {spec!r}: concurrency {arg!r} is not an "
                "integer"
            ) from None
        if concurrency < 1:
            raise ValueError(
                f"engine spec {spec!r}: concurrency must be >= 1"
            )
    return kind, concurrency


def coerce_engine(spec: EngineSpec = None) -> Engine:
    """Interpret an ``engine=`` argument into a live :class:`Engine`.

    ``None`` → serial.  ``"process"`` without an explicit ``:N`` sizes
    itself from ``os.cpu_count()``.  An :class:`Engine` instance passes
    through unchanged (sharable across calls).
    """
    if isinstance(spec, Engine):
        return spec
    kind, concurrency = parse_engine_spec("serial" if spec is None else spec)
    if kind == "serial":
        return SerialEngine()
    return ProcessEngine(concurrency or os.cpu_count() or 4)


__all__ = [
    "Engine",
    "EngineSpec",
    "ProcessEngine",
    "SerialEngine",
    "WorkerPayload",
    "coerce_engine",
    "execute_test_payload",
    "parse_engine_spec",
]
