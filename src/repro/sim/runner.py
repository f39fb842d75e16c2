"""Test-harness runner: executes an application's unit tests on the kernel.

Reproduces the MSTest-style framework semantics the paper's App-1 relies
on: when an application defines a ``TestInitialize`` method, the harness
runs it on a separate thread and only then starts the test method on
another thread — the framework's own signalling is *not* traced, exactly
like the paper's un-instrumented test framework, so SherLock must infer
the edge from ``TestInitialize``'s end to the test method's begin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..trace.events import TraceEvent
from ..trace.log import TraceLog
from ..trace.optypes import OpRef
from .errors import SimulationError
from .kernel import DEFAULT_OP_COST, Kernel
from .methods import Method
from .program import Application, UnitTest
from .runtime import Runtime
from .thread import WaitSet


@dataclass
class TestExecution:
    """Result of executing one unit test once."""

    test_name: str
    log: TraceLog
    steps: int
    error: Optional[str] = None


@dataclass
class RunOptions:
    """Knobs for one application run (one round over all tests)."""

    seed: int = 0
    run_id: int = 0
    op_cost: float = DEFAULT_OP_COST
    delay_plan: Dict[OpRef, float] = field(default_factory=dict)
    #: Which events reach the trace; reads only ``meta`` (see ``Kernel``).
    event_filter: Optional[Callable[[TraceEvent], bool]] = None
    max_steps: int = 2_000_000
    #: Scheduling-policy spec ("random", "pct", "pct:0.05").
    schedule_policy: str = "random"


def run_unit_test(
    app: Application, test: UnitTest, options: RunOptions
) -> TestExecution:
    """Execute one unit test on a fresh kernel and return its trace."""
    log = TraceLog(run_id=options.run_id)
    kernel = Kernel(
        seed=_mix_seed(options.seed, test.qname, options.run_id),
        op_cost=options.op_cost,
        log=log,
        delay_plan=options.delay_plan,
        event_filter=options.event_filter,
        max_steps=options.max_steps,
        schedule_policy=options.schedule_policy,
    )
    rt = Runtime(kernel)
    ctx = app.make_context(rt)
    test_method = Method(
        test.qname, lambda rt_, obj, ctx_: test.body(rt_, ctx_)
    )

    init_done = {"flag": app.test_initialize is None}
    init_waitset = WaitSet("harness:init")

    def init_thread():
        yield from rt.call(app.test_initialize, ctx.host)
        init_done["flag"] = True
        rt.notify_all(init_waitset)

    def test_thread():
        # The harness's own signalling is framework-internal: untraced.
        while not init_done["flag"]:
            yield from rt.wait_on(init_waitset)
        yield from rt.call(test_method, ctx.host, ctx)

    if app.test_initialize is not None:
        kernel.spawn(init_thread(), "harness:init")
    kernel.spawn(test_thread(), f"test:{test.name}")

    error: Optional[str] = None
    try:
        kernel.run()
    except SimulationError as exc:
        error = f"{type(exc).__name__}: {exc}"
    for thread in kernel.threads:
        if thread.error is not None and error is None:
            error = f"thread {thread.name}: {thread.error!r}"
    return TestExecution(test.qname, log, kernel.steps, error)


def run_application(
    app: Application, options: RunOptions
) -> List[TestExecution]:
    """Execute all unit tests of an application (one round)."""
    return [run_unit_test(app, test, options) for test in app.tests]


def _mix_seed(seed: int, test_qname: str, run_id: int) -> int:
    """Derive a per-test, per-round seed deterministically."""
    h = 2166136261
    for ch in f"{seed}|{test_qname}|{run_id}":
        h = (h ^ ord(ch)) * 16777619 % (1 << 32)
    return h


__all__ = ["RunOptions", "TestExecution", "run_application", "run_unit_test"]
