"""Kernel scheduling, tracing, determinism, and delay-injection tests."""

import pytest

from repro.sim import (
    DeadlockError,
    Kernel,
    Runtime,
    StepLimitExceeded,
    ThreadState,
    WaitSet,
)
from repro.sim.kernel import DelaySpec
from repro.sim.methods import Method
from repro.sim.schedule import SchedulePolicy
from repro.trace import OpRef, OpType, TraceLog
from tests.oracles import ScanKernel


def make_kernel(seed=0, **kwargs):
    log = TraceLog(run_id=0)
    kernel = Kernel(seed=seed, log=log, **kwargs)
    return kernel, Runtime(kernel), log


def test_single_thread_runs_to_completion():
    kernel, rt, log = make_kernel()
    obj = rt.new_object("C", x=0)

    def body():
        yield from rt.write(obj, "x", 5)
        value = yield from rt.read(obj, "x")
        assert value == 5

    kernel.spawn(body(), "t")
    kernel.run()
    assert len(log) == 2
    assert log[0].optype is OpType.WRITE
    assert log[1].optype is OpType.READ
    assert log[0].name == "C::x"
    assert log[0].address == obj.id


def test_clock_monotonic_and_timestamps_increase():
    kernel, rt, log = make_kernel()
    obj = rt.new_object("C", x=0)

    def body():
        for i in range(10):
            yield from rt.write(obj, "x", i)

    kernel.spawn(body(), "t")
    kernel.run()
    times = [e.timestamp for e in log]
    assert times == sorted(times)
    assert len(set(times)) == len(times)  # strictly increasing


def test_same_seed_same_trace():
    def build(seed):
        kernel, rt, log = make_kernel(seed=seed)
        obj = rt.new_object("C", x=0)

        def writer(val):
            for _ in range(5):
                yield from rt.write(obj, "x", val)

        kernel.spawn(writer(1), "a")
        kernel.spawn(writer(2), "b")
        kernel.run()
        return [(e.thread_id, e.name, round(e.timestamp, 9)) for e in log]

    assert build(7) == build(7)
    # Different seeds give a different interleaving with high probability.
    assert build(7) != build(8)


def test_interleaving_mixes_threads():
    kernel, rt, log = make_kernel(seed=3)
    obj = rt.new_object("C", x=0)

    def writer():
        for _ in range(20):
            yield from rt.write(obj, "x", 0)

    kernel.spawn(writer(), "a")
    kernel.spawn(writer(), "b")
    kernel.run()
    tids = {e.thread_id for e in log}
    assert len(tids) == 2
    # Not strictly sequential: thread ids alternate somewhere.
    sequence = [e.thread_id for e in log]
    assert any(a != b for a, b in zip(sequence, sequence[1:]))


def test_sleep_orders_events():
    kernel, rt, log = make_kernel()
    obj = rt.new_object("C", x=0)

    def early():
        yield from rt.write(obj, "x", 1)

    def late():
        yield from rt.sleep(1.0)
        yield from rt.write(obj, "x", 2)

    kernel.spawn(late(), "late")
    kernel.spawn(early(), "early")
    kernel.run()
    assert [e.thread_id for e in log] == [2, 1]
    assert log[1].timestamp >= 1.0


def test_wait_and_notify():
    kernel, rt, log = make_kernel()
    obj = rt.new_object("C", flag=False, data=0)
    ws = WaitSet("flag")
    state = {"flag": False}

    def waiter():
        while not state["flag"]:
            yield from rt.wait_on(ws)
        yield from rt.write(obj, "data", 1)

    def setter():
        yield from rt.sleep(0.5)
        state["flag"] = True
        rt.notify_all(ws)

    kernel.spawn(waiter(), "w")
    kernel.spawn(setter(), "s")
    kernel.run()
    assert log[0].timestamp >= 0.5


def test_deadlock_detected():
    kernel, rt, _ = make_kernel()
    ws = WaitSet("never")

    def stuck():
        while True:
            yield from rt.wait_on(ws)

    kernel.spawn(stuck(), "stuck")
    with pytest.raises(DeadlockError):
        kernel.run()


def test_step_limit():
    kernel, rt, _ = make_kernel(max_steps=100)

    def spin():
        while True:
            yield from rt.sched_yield()

    kernel.spawn(spin(), "spin")
    with pytest.raises(StepLimitExceeded):
        kernel.run()


def test_thread_exception_captured():
    kernel, rt, _ = make_kernel()

    def bad():
        yield from rt.sched_yield()
        raise ValueError("boom")

    thread = kernel.spawn(bad(), "bad")
    kernel.run()
    assert thread.state is ThreadState.FAILED
    assert isinstance(thread.error, ValueError)


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
def test_control_flow_exceptions_abort_the_run(exc_type):
    """Ctrl-C (or sys.exit) inside a simulated thread must abort the
    simulation, not be swallowed as an app failure while the run
    grinds on."""
    kernel, rt, _ = make_kernel()

    def interrupted():
        yield from rt.sched_yield()
        raise exc_type()

    thread = kernel.spawn(interrupted(), "interrupted")
    with pytest.raises(exc_type):
        kernel.run()
    # Not recorded as an app bug: the thread neither FAILED nor
    # captured the exception.
    assert thread.state is not ThreadState.FAILED
    assert thread.error is None


def test_directed_deferral_reorders_but_loses_no_events():
    """A directed policy parks the first target access and demotes its
    thread; the op must still execute exactly once and the run stays
    deterministic for the same spec."""

    def run(policy):
        log = TraceLog(run_id=0)
        kernel = Kernel(seed=0, log=log, schedule_policy=policy)
        rt = Runtime(kernel)
        obj = rt.new_object("C", x=0, y=0)

        def writer():
            yield from rt.write(obj, "x", 1)
            yield from rt.write(obj, "y", 1)

        def reader():
            yield from rt.read(obj, "x")
            yield from rt.read(obj, "y")

        kernel.spawn(writer(), "w")
        kernel.spawn(reader(), "r")
        kernel.run()
        return [(e.thread_id, e.optype, e.name) for e in log]

    directed = run("directed:0|C::x")
    assert sorted(directed) == sorted(run("random"))  # nothing dropped
    assert directed == run("directed:0|C::x")         # deterministic


def test_directed_deferral_of_sole_runnable_thread_makes_progress():
    def run():
        log = TraceLog(run_id=0)
        kernel = Kernel(seed=0, log=log, schedule_policy="directed:0|C::x")
        rt = Runtime(kernel)
        obj = rt.new_object("C", x=0)

        def solo():
            yield from rt.write(obj, "x", 1)

        kernel.spawn(solo(), "solo")
        kernel.run()
        return [e.name for e in log]

    assert run() == ["C::x"]


def test_delay_injection_stalls_thread_and_records_interval():
    site = OpRef("C::x", OpType.WRITE)
    log = TraceLog()
    kernel = Kernel(seed=0, log=log, delay_plan={site: 0.1})
    rt = Runtime(kernel)
    obj = rt.new_object("C", x=0)

    def body():
        yield from rt.write(obj, "x", 1)

    kernel.spawn(body(), "t")
    kernel.run()
    assert len(kernel.delays) == 1
    delay = kernel.delays[0]
    assert delay.site == site
    assert delay.duration == pytest.approx(0.1)
    # The event itself is emitted after the delay.
    assert log[0].timestamp >= delay.end - 1e-9
    assert log.delays == [delay]


def test_delay_applies_per_dynamic_instance():
    site = OpRef("C::x", OpType.WRITE)
    kernel = Kernel(seed=0, log=TraceLog(), delay_plan={site: 0.05})
    rt = Runtime(kernel)
    obj = rt.new_object("C", x=0)

    def body():
        yield from rt.write(obj, "x", 1)
        yield from rt.write(obj, "x", 2)

    kernel.spawn(body(), "t")
    kernel.run()
    assert len(kernel.delays) == 2


def test_write_trigger_does_not_fire_on_read_of_same_field():
    """``C::x`` passes the trigger-name prefilter on a read, but the
    plan holds only ``write(C::x)``, so the read is not delayed."""
    site = OpRef("C::x", OpType.WRITE)
    kernel, rt, log = make_kernel(delay_plan={site: 0.1})
    obj = rt.new_object("C", x=0)

    def body():
        yield from rt.read(obj, "x")
        yield from rt.write(obj, "x", 1)

    kernel.spawn(body(), "t")
    kernel.run()
    assert [d.site for d in kernel.delays] == [site]
    read, write = log
    assert read.optype is OpType.READ
    assert read.timestamp < kernel.delays[0].start
    assert write.timestamp >= kernel.delays[0].end - 1e-9


def test_method_exit_release_fires_at_its_begin_trigger():
    """A release ``end(m)`` is delayed before the call, ``begin(m)``."""
    site = OpRef("C::m", OpType.EXIT)
    trigger = OpRef("C::m", OpType.ENTER)
    kernel, rt, log = make_kernel(
        delay_plan={trigger: DelaySpec(duration=0.1, site=site)}
    )

    def body():
        yield from rt.call(Method("C::m"))

    kernel.spawn(body(), "t")
    kernel.run()
    assert len(kernel.delays) == 1
    delay = kernel.delays[0]
    assert delay.site == site
    enter, exit_ = log
    assert enter.optype is OpType.ENTER
    assert enter.timestamp >= delay.end - 1e-9
    assert exit_.timestamp > enter.timestamp


def test_filter_sees_the_stamped_event_that_is_logged():
    """The kernel builds each event once: the filter sees it stamped
    with the log's run id and next ``seq``, and the kept ones are the
    very objects in the log, densely numbered past dropped ones."""
    seen = []

    def keep_shown(event):
        seen.append(event)
        return event.name != "C::hidden"

    log = TraceLog(run_id=4)
    kernel = Kernel(seed=0, log=log, event_filter=keep_shown)
    rt = Runtime(kernel)
    obj = rt.new_object("C", hidden=0, shown=0)

    def body():
        for value in range(3):
            yield from rt.write(obj, "shown", value)
            yield from rt.write(obj, "hidden", value)

    kernel.spawn(body(), "t")
    kernel.run()
    kept = [e for e in seen if e.name == "C::shown"]
    assert len(seen) == 6
    assert len(log) == 3
    assert all(logged is event for logged, event in zip(log, kept))
    assert [e.seq for e in log] == [0, 1, 2]
    assert all(e.run_id == 4 for e in seen)


def test_event_filter_drops_events():
    log = TraceLog()
    kernel = Kernel(
        seed=0, log=log, event_filter=lambda e: e.name != "C::hidden"
    )
    rt = Runtime(kernel)
    obj = rt.new_object("C", hidden=0, shown=0)

    def body():
        yield from rt.write(obj, "hidden", 1)
        yield from rt.write(obj, "shown", 1)

    kernel.spawn(body(), "t")
    kernel.run()
    assert [e.name for e in log] == ["C::shown"]


def test_rand_and_now_syscalls():
    kernel, rt, _ = make_kernel(seed=42)
    seen = {}

    def body():
        seen["r"] = yield from rt.rand()
        seen["t0"] = yield from rt.now()
        yield from rt.sleep(0.25)
        seen["t1"] = yield from rt.now()

    kernel.spawn(body(), "t")
    kernel.run()
    assert 0.0 <= seen["r"] < 1.0
    assert seen["t1"] - seen["t0"] >= 0.25


def test_spawn_returns_thread_and_join():
    kernel, rt, log = make_kernel()
    obj = rt.new_object("C", x=0)

    def child():
        yield from rt.write(obj, "x", 1)

    def parent():
        thread = yield from rt.spawn_raw(child(), "child")
        yield from rt.join_raw(thread)
        yield from rt.write(obj, "x", 2)

    kernel.spawn(parent(), "parent")
    kernel.run()
    assert [e.thread_id for e in log] == [2, 1]


def test_delayed_thread_wakes_in_the_same_pass_as_an_equal_sleeper():
    """An injected delay and a plain sleep park two threads in
    consecutive steps at clock 0 (neither advances the clock), so both
    are due at the same instant.  One wake pass frees both, each thread
    is charged only its own park time, and they resume in tid order's
    runnable list exactly as the scanning scheduler would."""
    site = OpRef("C::x", OpType.WRITE)

    def run(kernel_cls):
        log = TraceLog(run_id=0)
        kernel = kernel_cls(seed=2, log=log, delay_plan={site: 0.01})
        rt = Runtime(kernel)
        obj = rt.new_object("C", x=0, y=0)

        def delayed():
            yield from rt.write(obj, "x", 1)

        def sleeper():
            yield from rt.sleep(0.01)
            yield from rt.write(obj, "y", 1)

        kernel.spawn(delayed(), "delayed")
        kernel.spawn(sleeper(), "sleeper")
        kernel.run()
        return kernel, log

    kernel, log = run(Kernel)
    (delay,) = kernel.delays
    assert delay.start == 0.0 and delay.end == 0.01
    # The clock jumps straight to the shared instant and the first write
    # runs there; each thread was charged exactly its own 0.01 s park.
    assert sorted(e.name for e in log) == ["C::x", "C::y"]
    assert log[0].timestamp == 0.01 < log[1].timestamp
    assert [e.local_time for e in log] == [0.01, 0.01]
    oracle, oracle_log = run(ScanKernel)
    assert [
        (e.thread_id, e.name, e.timestamp, e.local_time) for e in log
    ] == [
        (e.thread_id, e.name, e.timestamp, e.local_time) for e in oracle_log
    ]
    assert kernel.steps == oracle.steps


class _FirstRunnable(SchedulePolicy):
    spec = "first-runnable"

    def choose(self, runnable, step):
        return runnable[0]


class _AskOncePolicy(_FirstRunnable):
    """Steps the first runnable thread; defers each (thread, field) once
    and records every consult, so a test sees whether the kernel asked."""

    spec = "ask-once"

    def __init__(self):
        self.asked = []

    def defer(self, thread, optype, name):
        self.asked.append((thread.tid, name))
        return self.asked.count((thread.tid, name)) == 1


@pytest.mark.parametrize("kernel_cls", [Kernel, ScanKernel])
def test_deferral_sees_the_thread_woken_this_step(kernel_cls):
    """The toucher's target write is dispatched in the very step whose
    wake pass freed the sleeper: that sleeper is the only other runnable
    thread, and it must count, so the policy is consulted."""
    policy = _AskOncePolicy()
    log = TraceLog(run_id=0)
    kernel = kernel_cls(seed=0, log=log, schedule_policy=policy)
    rt = Runtime(kernel)
    obj = rt.new_object("D", x=0, y=0)

    def toucher():
        while kernel.clock + 1e-12 < 0.01:
            yield from rt.sched_yield()
        yield from rt.write(obj, "x", 1)

    def sleeper():
        yield from rt.sleep(0.01)
        yield from rt.write(obj, "y", 1)

    kernel.spawn(toucher(), "toucher")
    kernel.spawn(sleeper(), "sleeper")
    kernel.run()
    # Asked once (deferred), then again on re-dispatch (proceeds).
    assert policy.asked == [(1, "D::x"), (1, "D::x")]
    assert [e.name for e in log] == ["D::x", "D::y"]


@pytest.mark.parametrize("kernel_cls", [Kernel, ScanKernel])
def test_deferral_not_asked_while_the_sleeper_still_sleeps(kernel_cls):
    """Contrast: the same write one wake-up too early finds no other
    runnable thread, so the policy is never consulted."""
    policy = _AskOncePolicy()
    kernel = kernel_cls(seed=0, log=TraceLog(), schedule_policy=policy)
    rt = Runtime(kernel)
    obj = rt.new_object("D", x=0)

    def toucher():
        yield from rt.write(obj, "x", 1)

    def sleeper():
        yield from rt.sleep(0.01)

    kernel.spawn(sleeper(), "sleeper")
    kernel.spawn(toucher(), "toucher")
    kernel.run()
    assert policy.asked == []


@pytest.mark.parametrize("kernel_cls", [Kernel, ScanKernel])
def test_deadlock_message_lists_blocked_threads_in_creation_order(
    kernel_cls,
):
    """Threads block in the order #3, #2, #1; the error still lists
    them by tid."""
    kernel = kernel_cls(seed=0, log=TraceLog())
    rt = Runtime(kernel)
    never = WaitSet("never")

    def block_after(delay):
        def body():
            if delay:
                yield from rt.sleep(delay)
            yield from rt.wait_on(never)

        return body()

    kernel.spawn(block_after(0.02), "late")
    kernel.spawn(block_after(0.01), "middle")
    kernel.spawn(block_after(0.0), "early")
    with pytest.raises(DeadlockError) as info:
        kernel.run()
    assert str(info.value) == (
        "deadlock: all live threads blocked: "
        "SimThread(#1 'late' blocked), "
        "SimThread(#2 'middle' blocked), "
        "SimThread(#3 'early' blocked)"
    )


@pytest.mark.parametrize("kernel_cls", [Kernel, ScanKernel])
def test_sleepers_a_rounding_error_apart_wake_together(kernel_cls):
    """#1 sleeps 0.1 then 0.2 (due at 0.30000000000000004), #2 sleeps
    0.3: the clock jumps to 0.3 and the 1e-12 tolerance wakes both, so
    #1, first in creation order, writes at exactly 0.3."""
    log = TraceLog()
    kernel = kernel_cls(seed=0, log=log, schedule_policy=_FirstRunnable())
    rt = Runtime(kernel)
    obj = rt.new_object("C", x=0, y=0)

    def two_naps():
        yield from rt.sleep(0.1)
        yield from rt.sleep(0.2)
        yield from rt.write(obj, "x", 1)

    def one_nap():
        yield from rt.sleep(0.3)
        yield from rt.write(obj, "y", 1)

    kernel.spawn(two_naps(), "two-naps")
    kernel.spawn(one_nap(), "one-nap")
    kernel.run()
    assert 0.1 + 0.2 > 0.3
    assert [(e.thread_id, e.timestamp) for e in log][0] == (1, 0.3)
