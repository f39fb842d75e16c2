"""End-to-end inference tests on small hand-built applications.

These are the crucial behavioural checks: given traces of a program using
a lock, a flag variable, or a fork edge, the full pipeline must infer the
right acquire/release operations with no prior knowledge.
"""


from repro.core import Sherlock, SherlockConfig
from repro.sim import (
    AppContext,
    AppInfo,
    Application,
    GroundTruth,
    Method,
    UnitTest,
)
from repro.sim.primitives import Monitor, SystemThread, Task
from repro.trace import OpRef, OpType, Role, SyncOp, begin_of, end_of


def make_app(tests, name="Mini"):
    info = AppInfo("App-T", name, "0.1K", 1, len(tests))
    return Application(
        info=info,
        make_context=lambda rt: AppContext(),
        tests=tests,
        ground_truth=GroundTruth(),
    )


def config(rounds=2):
    return SherlockConfig(rounds=rounds, seed=1)


# ---------------------------------------------------------------------------
# Lock inference
# ---------------------------------------------------------------------------

def lock_test_body(rt, ctx):
    # A lock protecting several fields through *heterogeneous* critical
    # sections (different first/last field per code path) — the realistic
    # shape that lets the shared Monitor pair out-compete per-field flag
    # interpretations: only Enter/Exit appear in every window.
    lock = Monitor("m")
    shared = rt.new_object("Mini.Counter", value=0, total=0)

    def worker1(rt_, obj):
        for _ in range(3):
            yield from lock.enter(rt_)
            t = yield from rt_.read(shared, "total")
            yield from rt_.write(shared, "total", t + 1)
            v = yield from rt_.read(shared, "value")
            yield from rt_.write(shared, "value", v + 1)
            yield from lock.exit(rt_)
            pause = yield from rt_.rand()
            yield from rt_.sleep(0.05 + 0.05 * pause)

    def worker2(rt_, obj):
        yield from rt_.sleep(0.04)
        for _ in range(3):
            yield from lock.enter(rt_)
            v = yield from rt_.read(shared, "value")
            yield from rt_.write(shared, "value", v + 1)
            t = yield from rt_.read(shared, "total")
            yield from rt_.write(shared, "total", t + v)
            yield from lock.exit(rt_)
            pause = yield from rt_.rand()
            yield from rt_.sleep(0.05 + 0.05 * pause)

    t1 = SystemThread(Method("Mini::Worker1", worker1), name="w1")
    t2 = SystemThread(Method("Mini::Worker2", worker2), name="w2")
    yield from t1.start(rt)
    yield from t2.start(rt)
    yield from t1.join(rt)
    yield from t2.join(rt)


def test_infers_monitor_enter_exit():
    app = make_app([UnitTest("MiniTests::LockTest", lock_test_body)])
    report = Sherlock(app, config()).run()
    syncs = report.final.syncs
    assert SyncOp(
        begin_of("System.Threading.Monitor::Enter"), Role.ACQUIRE
    ) in syncs
    assert SyncOp(
        end_of("System.Threading.Monitor::Exit"), Role.RELEASE
    ) in syncs


# ---------------------------------------------------------------------------
# Flag-variable inference
# ---------------------------------------------------------------------------

def flag_test_body(rt, ctx):
    state = rt.new_object("Mini.State", ready=False, data=0)

    def producer(rt_, obj):
        yield from rt_.write(state, "data", 99)
        yield from rt_.write(state, "ready", True)

    def consumer(rt_, obj):
        while not (yield from rt_.read(state, "ready")):
            yield from rt_.sleep(0.01)
        value = yield from rt_.read(state, "data")
        assert value == 99

    tp = SystemThread(Method("Mini::Producer", producer), name="p")
    tc = SystemThread(Method("Mini::Consumer", consumer), name="c")
    yield from tp.start(rt)
    yield from tc.start(rt)
    yield from tp.join(rt)
    yield from tc.join(rt)


def test_infers_flag_variable_sync():
    app = make_app([UnitTest("MiniTests::FlagTest", flag_test_body)])
    report = Sherlock(app, config()).run()
    syncs = report.final.syncs
    assert SyncOp(
        OpRef("Mini.State::ready", OpType.WRITE), Role.RELEASE
    ) in syncs
    assert SyncOp(
        OpRef("Mini.State::ready", OpType.READ), Role.ACQUIRE
    ) in syncs
    # The protected data field must NOT be inferred as a sync.
    assert SyncOp(
        OpRef("Mini.State::data", OpType.WRITE), Role.RELEASE
    ) not in syncs


# ---------------------------------------------------------------------------
# Fork/join inference
# ---------------------------------------------------------------------------

def fork_test_body(rt, ctx):
    # The delegate touches several parent-initialized fields, so the fork
    # edge amortizes over many conflicting pairs (as in real task code).
    box = rt.new_object(
        "Mini.Box", input=0, scale=1, label="", output=0, trace=""
    )

    def child(rt_, obj):
        # Heterogeneous read order across invocations, as real delegates
        # with different code paths have.
        if box.fields["scale"] == 2:
            value = yield from rt_.read(box, "input")
            scale = yield from rt_.read(box, "scale")
            label = yield from rt_.read(box, "label")
            yield from rt_.write(box, "output", value * scale)
            yield from rt_.write(box, "trace", f"{label}:{value * scale}")
        else:
            label = yield from rt_.read(box, "label")
            scale = yield from rt_.read(box, "scale")
            value = yield from rt_.read(box, "input")
            yield from rt_.write(box, "trace", f"{label}:{value * scale}")
            yield from rt_.write(box, "output", value * scale)

    yield from rt.write(box, "input", 21)
    yield from rt.write(box, "scale", 2)
    yield from rt.write(box, "label", "run")
    # First round trip: join immediately, so Wait genuinely blocks.
    task = Task(Method("Mini::Child", child), name="child")
    yield from task.start(rt)
    yield from task.wait(rt)
    result = yield from rt.read(box, "output")
    note = yield from rt.read(box, "trace")
    assert result == 42
    assert note == "run:42"
    # Second round trip: do unrelated work first, so Wait returns at once.
    # The variance between the two is the Acquisition-Time-Varies signal.
    yield from rt.write(box, "input", 4)
    yield from rt.write(box, "scale", 10)
    yield from rt.write(box, "label", "again")
    task2 = Task(Method("Mini::Child", child), name="child2")
    yield from task2.start(rt)
    yield from rt.sleep(0.08)
    yield from task2.wait(rt)
    result = yield from rt.read(box, "output")
    assert result == 40


def test_infers_fork_join_edges():
    app = make_app([UnitTest("MiniTests::ForkTest", fork_test_body)])
    report = Sherlock(app, config()).run()
    syncs = report.final.syncs
    # Fork: end of Task::Start releases; begin of the delegate acquires.
    assert SyncOp(
        end_of("System.Threading.Tasks.Task::Start"), Role.RELEASE
    ) in syncs
    assert SyncOp(begin_of("Mini::Child"), Role.ACQUIRE) in syncs
    # Join: end of the delegate releases; begin of Task::Wait acquires.
    assert SyncOp(end_of("Mini::Child"), Role.RELEASE) in syncs
    assert SyncOp(
        begin_of("System.Threading.Tasks.Task::Wait"), Role.ACQUIRE
    ) in syncs


# ---------------------------------------------------------------------------
# Sparsity: protected data and noise are not inferred
# ---------------------------------------------------------------------------

def test_sparse_solution_few_syncs():
    app = make_app([
        UnitTest("MiniTests::LockTest", lock_test_body),
        UnitTest("MiniTests::FlagTest", flag_test_body),
        UnitTest("MiniTests::ForkTest", fork_test_body),
    ])
    report = Sherlock(app, config()).run()
    syncs = report.final.syncs
    # A handful of syncs, not dozens: the rare hypothesis keeps it sparse.
    assert 4 <= len(syncs) <= 18
    names = {s.op.name for s in syncs}
    assert "Mini.Counter::value" not in names
    assert "Mini.Box::output" not in names


def test_without_mostly_protected_nothing_inferred():
    app = make_app([UnitTest("MiniTests::LockTest", lock_test_body)])
    cfg = config().without(hyp_mostly_protected=False)
    report = Sherlock(app, cfg).run()
    assert report.final.syncs == set()


def test_rounds_accumulate_windows():
    app = make_app([UnitTest("MiniTests::LockTest", lock_test_body)])
    report = Sherlock(app, config(rounds=3)).run()
    counts = [r.windows_total for r in report.rounds]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_report_describe_mentions_app():
    app = make_app([UnitTest("MiniTests::FlagTest", flag_test_body)])
    report = Sherlock(app, config()).run()
    assert "App-T" in report.describe()
