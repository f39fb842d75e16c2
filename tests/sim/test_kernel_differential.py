"""The event-driven kernel against the scan-based oracle (hypothesis).

Random programs of sleeps, wait/notify, spawns, joins, finalizers,
failing threads and delay plans run once on
:class:`~repro.sim.kernel.Kernel` and once on
:class:`~tests.oracles.ScanKernel`.  Sleeps and waits cost no virtual
time, so threads that park in consecutive steps share the clock and
wake at equal ``wake_at``; sums such as 0.1 + 0.2 against 0.3 land a
rounding error apart, inside the wake tolerance.  The policies are
``random``, ``pct``, ``directed:`` and two custom ones; one of them
overrides ``defer`` and draws the kernel RNG every time it is asked, so
a single consult at the wrong point shows up in the trace.  Everything
the run leaves must be identical: trace digest, steps, delays, clock,
each thread's state and error, and the ``DeadlockError`` /
``StepLimitExceeded`` text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import trace_digest
from repro.sim import Kernel, Runtime, WaitSet
from repro.sim.errors import DeadlockError, StepLimitExceeded
from repro.sim.kernel import DelaySpec
from repro.sim.methods import Method
from repro.sim.runner import TestExecution as Execution
from repro.sim.schedule import RandomPolicy, SchedulePolicy
from repro.trace import OpRef, OpType, TraceLog
from tests.oracles import ScanKernel

FIELDS = ("a", "b", "c")
METHODS = ("K::m0", "K::m1")
#: 0.1 + 0.2 != 0.3 in floating point, but within the kernel's 1e-12
#: wake tolerance: such sleepers must wake in the same pass.
SLEEPS = (0.0, 0.002, 0.1, 0.2, 0.3)
WAITSETS = 2


class CoinDeferPolicy(RandomPolicy):
    """Random choice; defers any traced op with probability 0.4, drawn
    from the kernel RNG on every consult."""

    spec = "coin-defer"

    def defer(self, thread, optype, name):
        return self.rng.random() < 0.4


class LastRunnablePolicy(SchedulePolicy):
    """Always steps the newest runnable thread; keeps the base defer."""

    spec = "last-runnable"

    def choose(self, runnable, step):
        return runnable[-1]


POLICIES = {
    "random": lambda: "random",
    "pct": lambda: "pct:0.3",
    "directed": lambda: "directed:3|K::a|K::b[write]",
    "coin-defer": CoinDeferPolicy,
    "last-runnable": LastRunnablePolicy,
}

PLAN_ENTRIES = {
    "write-a": (OpRef("K::a", OpType.WRITE), 0.01),
    "read-b": (OpRef("K::b", OpType.READ), 0.002),
    "enter-m0": (OpRef("K::m0", OpType.ENTER), 0.01),
    "exit-m1@enter": (
        OpRef("K::m1", OpType.ENTER),
        DelaySpec(duration=0.002, site=OpRef("K::m1", OpType.EXIT)),
    ),
}

leaf_ops = st.one_of(
    st.tuples(st.sampled_from(["write", "read", "finalize"]),
              st.sampled_from(FIELDS)),
    st.tuples(st.just("call"), st.sampled_from(METHODS)),
    st.tuples(st.just("sleep"), st.sampled_from(SLEEPS)),
    st.tuples(st.sampled_from(["wait", "notify"]),
              st.integers(0, WAITSETS - 1)),
    st.tuples(st.sampled_from(["yield", "rand", "now", "join", "fail"])),
)
child_programs = st.lists(leaf_ops, max_size=5)
ops = st.one_of(leaf_ops, st.tuples(st.just("spawn"), child_programs))
programs = st.lists(st.lists(ops, max_size=8), min_size=1, max_size=4)


def run_program(kernel_cls, program, seed, plan_keys, policy, max_steps):
    """Run ``program`` (one op list per thread) and return everything
    the run leaves behind."""
    log = TraceLog(run_id=0)
    kernel = kernel_cls(
        seed=seed,
        log=log,
        delay_plan=dict(PLAN_ENTRIES[key] for key in plan_keys),
        schedule_policy=POLICIES[policy](),
        max_steps=max_steps,
    )
    rt = Runtime(kernel)
    obj = rt.new_object("K", a=0, b=0, c=0)
    waitsets = [WaitSet(f"ws{i}") for i in range(WAITSETS)]
    notified = [False] * WAITSETS

    def body(thread_ops):
        children = []
        for op in thread_ops:
            kind = op[0]
            if kind == "write":
                yield from rt.write(obj, op[1], 1)
            elif kind == "read":
                yield from rt.read(obj, op[1])
            elif kind == "finalize":
                field = op[1]
                kernel.enqueue_finalizer(lambda: rt.write(obj, field, 2))
            elif kind == "call":
                yield from rt.call(Method(op[1]), obj)
            elif kind == "sleep":
                yield from rt.sleep(op[1])
            elif kind == "wait":
                if not notified[op[1]]:
                    yield from rt.wait_on(waitsets[op[1]])
            elif kind == "notify":
                notified[op[1]] = True
                rt.notify_all(waitsets[op[1]])
            elif kind == "yield":
                yield from rt.sched_yield()
            elif kind == "rand":
                yield from rt.rand()
            elif kind == "now":
                yield from rt.now()
            elif kind == "join":
                if children:
                    yield from rt.join_raw(children.pop())
            elif kind == "fail":
                raise ValueError(f"boom at {kernel.steps}")
            elif kind == "spawn":
                child = yield from rt.spawn_raw(body(op[1]), "child")
                children.append(child)

    for i, thread_ops in enumerate(program):
        kernel.spawn(body(thread_ops), f"t{i}")
    failure = None
    try:
        kernel.run()
    except (DeadlockError, StepLimitExceeded) as exc:
        failure = (type(exc).__name__, str(exc))
    return {
        "digest": trace_digest([Execution("p", log, kernel.steps)]),
        "steps": kernel.steps,
        "delays": kernel.delays,
        "clock": kernel.clock,
        "threads": [
            (t.tid, t.name, t.state, repr(t.error)) for t in kernel.threads
        ],
        "failure": failure,
    }


@pytest.mark.parametrize("policy", sorted(POLICIES))
@given(
    program=programs,
    seed=st.integers(0, 10_000),
    plan_keys=st.sets(st.sampled_from(sorted(PLAN_ENTRIES))),
    max_steps=st.sampled_from([20, 2000]),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_scan_oracle(policy, program, seed, plan_keys,
                                    max_steps):
    args = (program, seed, sorted(plan_keys), policy, max_steps)
    assert run_program(Kernel, *args) == run_program(ScanKernel, *args)


def test_generated_programs_reach_every_ending():
    """One fixed program per ending — clean, deadlock, step limit, a
    failed thread — ends that way under every policy, and the two
    kernels agree on each."""
    cases = {
        "clean": ([[("sleep", 0.01), ("write", "a")],
                   [("sleep", 0.01), ("read", "a")]], 2000),
        "deadlock": ([[("wait", 0)], [("sleep", 0.01), ("wait", 1)]], 2000),
        "step-limit": ([[("yield",)] * 8, [("yield",)] * 8], 10),
        "failed": ([[("write", "a"), ("fail",)], [("read", "a")]], 2000),
    }
    for policy in sorted(POLICIES):
        endings = {}
        for name, (program, max_steps) in cases.items():
            args = (program, 1, ["write-a"], policy, max_steps)
            result = run_program(Kernel, *args)
            assert result == run_program(ScanKernel, *args)
            endings[name] = result
        assert endings["clean"]["failure"] is None
        assert endings["deadlock"]["failure"][0] == "DeadlockError"
        assert endings["step-limit"]["failure"][0] == "StepLimitExceeded"
        assert "boom" in endings["failed"]["threads"][0][3]
