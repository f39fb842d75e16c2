"""The discrete-event scheduling kernel.

The kernel runs simulated threads (generator coroutines) under a *seeded*
random scheduler over a virtual clock.  It is the substitute for the
non-deterministic OS scheduler in the paper's setting and gives us:

* reproducible interleavings (seed → identical trace),
* honest blocking semantics (a blocked thread makes no progress, so an
  injected delay cascades exactly like in the paper's Figure 2),
* virtual timestamps that SherLock's ``Near`` window and delay-propagation
  checks can measure without wall-clock noise, and
* delay injection: before executing any traced operation whose static
  :class:`~repro.trace.optypes.OpRef` is in the delay plan, the executing
  thread is put to sleep for the configured duration and the interval is
  recorded for the propagation analysis.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..trace.events import DelayInterval, TraceEvent
from ..trace.log import TraceLog
from ..trace.optypes import OpRef, OpType
from .errors import DeadlockError, IllegalSyscall, StepLimitExceeded
from .schedule import SchedulePolicy, build_policy
from .syscalls import (
    SysEmit,
    SysNow,
    SysRand,
    SysRead,
    SysSleep,
    SysSpawn,
    SysWait,
    SysWrite,
    SysYieldSched,
    Syscall,
)
from .thread import SimThread, ThreadState, WaitSet

#: Default virtual cost of one operation, in seconds.  Chosen so a typical
#: unit test's trace spans a few virtual seconds, making the paper's
#: Near = 1 s and 100 ms delays play the same relative roles.
DEFAULT_OP_COST = 0.002


@dataclass(frozen=True)
class DelaySpec:
    """One delay-plan entry.

    ``site`` is the operation under test (what the Solver called a
    release); the plan key is the *trigger* — the operation the kernel
    stalls before.  They differ for method-exit releases: real call-site
    instrumentation can only inject before the *call*, so a release
    ``end(m)`` is triggered at ``begin(m)``.
    """

    duration: float
    site: OpRef


class Kernel:
    """Deterministic discrete-event scheduler for one simulated run.

    ``event_filter`` decides which traced events reach ``log``.  It sees
    each event already stamped with the log's ``run_id`` and next
    ``seq``; filters read only the event's ``meta`` (the observer drops
    ``hidden`` methods), and a dropped event leaves ``seq`` dense.

    The scheduler loop is event-driven: no step scans ``threads``.
    Every thread state change goes through :meth:`_set_state`, which
    keeps three structures current — the RUNNABLE threads as a list in
    creation (tid) order, the SLEEPING ones in a heap keyed by
    ``(wake_at, tid)``, and a count of the BLOCKED ones.  The list is
    exactly what a filtered scan of ``threads`` would give, so the
    policy sees the same candidates and makes the same draws; the heap
    top is the earliest ``wake_at``.  Whether the policy can defer at
    all is decided once, here: the base :meth:`SchedulePolicy.defer`
    never does and draws nothing, so it is not consulted.  Whether the
    delay plan is empty is decided once too: an empty plan delays
    nothing, so no op asks it.
    """

    def __init__(
        self,
        seed: int = 0,
        op_cost: float = DEFAULT_OP_COST,
        log: Optional[TraceLog] = None,
        delay_plan: Optional[Dict[OpRef, float]] = None,
        event_filter: Optional[Callable[[TraceEvent], bool]] = None,
        max_steps: int = 2_000_000,
        schedule_policy: Union[str, SchedulePolicy] = "random",
    ) -> None:
        self.rng = random.Random(seed)
        self.policy = build_policy(schedule_policy)
        self.policy.reset(self.rng)
        self.op_cost = op_cost
        self.clock = 0.0
        self.log = log
        self.delay_plan = dict(delay_plan or {})
        #: Names of the plan's triggers: ``_maybe_delay`` returns before
        #: building an OpRef for an op whose name is not among them.
        self._trigger_names = frozenset(ref.name for ref in self.delay_plan)
        #: False for an empty plan (all of round 0): ``_dispatch`` then
        #: never calls ``_maybe_delay``, which could only return False.
        self._has_delays = bool(self.delay_plan)
        self.event_filter = event_filter
        self.max_steps = max_steps
        self.threads: List[SimThread] = []
        #: RUNNABLE threads in creation order (what ``policy.choose`` sees).
        self._runnable: List[SimThread] = []
        #: SLEEPING threads as ``(wake_at, tid, thread)``; tids are unique,
        #: so the heap never compares threads.
        self._sleepers: List[Tuple[float, int, SimThread]] = []
        #: Number of BLOCKED threads.
        self._blocked = 0
        #: False when the policy keeps the base ``defer``, which never
        #: defers: ``_maybe_defer`` then returns at once.
        self._policy_defers = (
            getattr(self.policy.defer, "__func__", None)
            is not SchedulePolicy.defer
        )
        self.steps = 0
        self.delays: List[DelayInterval] = []
        self._next_tid = 1
        #: Queue of generator factories for the lazy finalizer thread.
        self._finalizer_queue: List[Any] = []
        self._finalizer_thread: Optional[SimThread] = None
        #: The thread currently being stepped (for primitive ownership).
        self.current: Optional[SimThread] = None

    # -- thread management ------------------------------------------------------

    def spawn(self, body: Any, name: str = "thread") -> SimThread:
        """Register a new thread running the given generator."""
        thread = SimThread(self._next_tid, body, name)
        self._next_tid += 1
        self.threads.append(thread)
        # Born RUNNABLE with the largest tid so far: creation order holds.
        self._runnable.append(thread)
        return thread

    def wake_all(self, waitset: WaitSet) -> None:
        """Move every waiter back to RUNNABLE (spurious-wakeup friendly)."""
        for thread in waitset.waiters:
            if thread.state is ThreadState.BLOCKED:
                self._set_state(thread, ThreadState.RUNNABLE)
                thread.local_clock += self.clock - thread.park_start
        waitset.waiters.clear()

    def _set_state(self, thread: SimThread, state: ThreadState) -> None:
        """Change a live thread's state, keeping the runnable list, the
        sleeper heap and the blocked count current.

        A thread enters SLEEPING with its ``wake_at`` already set and
        leaves it only through :meth:`_wake_sleepers`, which pops it.
        """
        old = thread.state
        thread.state = state
        if old is ThreadState.RUNNABLE:
            self._runnable.remove(thread)
        elif old is ThreadState.BLOCKED:
            self._blocked -= 1
        if state is ThreadState.RUNNABLE:
            runnable = self._runnable
            index = len(runnable)
            while index and runnable[index - 1].tid > thread.tid:
                index -= 1
            runnable.insert(index, thread)
        elif state is ThreadState.SLEEPING:
            heapq.heappush(
                self._sleepers, (thread.wake_at, thread.tid, thread)
            )
        elif state is ThreadState.BLOCKED:
            self._blocked += 1

    # -- garbage collection / finalizers -------------------------------------------

    def enqueue_finalizer(self, body_factory: Callable[[], Any]) -> None:
        """Queue a finalizer to run on the (lazily created) GC thread.

        The happens-before edge "last reference removed → finalizer start"
        holds by construction: the finalizer body is only created and run
        after the enqueue point.
        """
        self._finalizer_queue.append(body_factory)
        if self._finalizer_thread is None or self._finalizer_thread.finished:
            self._finalizer_thread = self.spawn(
                self._finalizer_loop(), "gc-finalizer"
            )

    def _finalizer_loop(self):
        # GC runs "a much later time after" the releasing instruction
        # (§5.5) — model that with a sizable virtual lag before each batch.
        while self._finalizer_queue:
            yield SysSleep(0.05 + 0.2 * self.rng.random())
            batch = list(self._finalizer_queue)
            self._finalizer_queue.clear()
            for factory in batch:
                yield from factory()

    # -- main loop -----------------------------------------------------------------

    def run(self) -> None:
        """Run until every thread has finished.

        Raises :class:`DeadlockError` when live threads remain but none can
        ever be woken, and :class:`StepLimitExceeded` on runaway loops.
        """
        runnable = self._runnable
        sleepers = self._sleepers
        choose = self.policy.choose
        while True:
            if sleepers and sleepers[0][0] <= self.clock + 1e-12:
                self._wake_sleepers()
            if not runnable:
                if sleepers:
                    self.clock = sleepers[0][0]
                    continue
                if self._blocked:
                    raise DeadlockError([
                        repr(t) for t in self.threads
                        if t.state is ThreadState.BLOCKED
                    ])
                return  # all finished
            thread = choose(runnable, self.steps)
            self._step(thread)
            self.steps += 1
            if self.steps > self.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {self.max_steps} scheduler steps"
                )

    def _wake_sleepers(self) -> None:
        """Wake every sleeper due at the current clock.

        They pop in ``(wake_at, tid)`` order; each wake-up touches only
        its own thread's clock and lands at its tid's place in the
        runnable list, so the order within one pass is unobservable.
        """
        sleepers = self._sleepers
        due = self.clock + 1e-12
        while sleepers and sleepers[0][0] <= due:
            thread = heapq.heappop(sleepers)[2]
            self._set_state(thread, ThreadState.RUNNABLE)
            thread.local_clock += max(0.0, self.clock - thread.park_start)

    def _step(self, thread: SimThread) -> None:
        """Execute one syscall of ``thread``."""
        self.current = thread
        if thread.pending is not None:
            syscall = thread.pending
            thread.pending = None
        else:
            try:
                syscall = thread.body.send(thread.send_value)
            except StopIteration:
                self._finish(thread, ThreadState.FINISHED)
                return
            except Exception as exc:  # app bug: record and stop thread
                thread.error = exc
                self._finish(thread, ThreadState.FAILED)
                return
            # Control-flow exceptions (KeyboardInterrupt, SystemExit)
            # are *not* app failures: they propagate so Ctrl-C aborts a
            # long simulation instead of being recorded as a thread
            # error while the run grinds on.
            thread.send_value = None
        self._dispatch(thread, syscall)

    def _finish(self, thread: SimThread, state: ThreadState) -> None:
        self._set_state(thread, state)
        self.wake_all(thread.done_waitset)

    # -- syscall dispatch -------------------------------------------------------------

    def _dispatch(self, thread: SimThread, syscall: Syscall) -> None:
        if isinstance(syscall, SysRead):
            name = syscall.obj.field_qname(syscall.fieldname)
            if self._maybe_defer(thread, syscall, OpType.READ, name):
                return
            if self._has_delays and self._maybe_delay(
                thread, syscall, OpType.READ, name
            ):
                return
            value = syscall.obj.get(syscall.fieldname)
            self._emit(thread, OpType.READ, name, syscall.obj.id)
            thread.send_value = value
        elif isinstance(syscall, SysWrite):
            name = syscall.obj.field_qname(syscall.fieldname)
            if self._maybe_defer(thread, syscall, OpType.WRITE, name):
                return
            if self._has_delays and self._maybe_delay(
                thread, syscall, OpType.WRITE, name
            ):
                return
            syscall.obj.set(syscall.fieldname, syscall.value)
            self._emit(thread, OpType.WRITE, name, syscall.obj.id)
        elif isinstance(syscall, SysEmit):
            if self._maybe_defer(
                thread, syscall, syscall.optype, syscall.name
            ):
                return
            if self._has_delays and self._maybe_delay(
                thread, syscall, syscall.optype, syscall.name
            ):
                return
            self._emit(
                thread, syscall.optype, syscall.name, syscall.address,
                syscall.meta,
            )
        elif isinstance(syscall, SysSleep):
            thread.wake_at = self.clock + max(0.0, syscall.duration)
            thread.park_start = self.clock
            self._set_state(thread, ThreadState.SLEEPING)
        elif isinstance(syscall, SysWait):
            thread.park_start = self.clock
            self._set_state(thread, ThreadState.BLOCKED)
            syscall.waitset.add(thread)
        elif isinstance(syscall, SysSpawn):
            child = self.spawn(syscall.body, syscall.name)
            self._advance(thread)
            thread.send_value = child
        elif isinstance(syscall, SysNow):
            thread.send_value = self.clock
        elif isinstance(syscall, SysRand):
            thread.send_value = self.rng.random()
        elif isinstance(syscall, SysYieldSched):
            self._advance(thread)
        else:
            raise IllegalSyscall(f"cannot dispatch {syscall!r}")

    # -- directed deferral -------------------------------------------------------------

    def _maybe_defer(
        self, thread: SimThread, syscall: Syscall, optype: OpType, name: str
    ) -> bool:
        """Let the schedule policy postpone a traced operation.

        A deferred syscall is parked on the thread exactly like a
        delayed one, but the thread stays RUNNABLE and no virtual time
        passes — the policy has simply demoted it, so other threads
        overtake at this static location (the
        :class:`~repro.sim.schedule.DirectedPolicy` reordering
        mechanism).  Consulted before delay injection so a deferred
        operation still pays its injected delay exactly once on
        re-dispatch.

        The policy is only consulted while some *other* thread is
        runnable: with every sibling parked (blocked in a phase wait,
        asleep, or finished) nobody can overtake, so a deferral would
        achieve no reordering while silently burning the policy's
        one-shot deferral at this site — exactly the situation of a
        directed target whose toucher outlives its phaser quorum.

        ``thread`` is the one being stepped, so it is on the runnable
        list: another thread is runnable exactly when the list holds
        two or more.
        """
        if not self._policy_defers or len(self._runnable) < 2:
            return False
        if not self.policy.defer(thread, optype, name):
            return False
        thread.pending = syscall
        return True

    # -- delay injection ---------------------------------------------------------------

    def _maybe_delay(
        self, thread: SimThread, syscall: Syscall, optype: OpType, name: str
    ) -> bool:
        """Apply the Perturber's delay plan before a traced operation.

        Returns True when the thread was put to sleep; the syscall is
        parked on the thread and re-dispatched (delay already paid) on
        wake-up.
        """
        if thread.delay_paid:
            thread.delay_paid = False
            return False
        if name not in self._trigger_names:
            return False
        trigger = OpRef(name, optype)
        spec = self.delay_plan.get(trigger)
        if spec is None:
            return False
        if isinstance(spec, DelaySpec):
            duration, site = spec.duration, spec.site
        else:  # plain float: the trigger is the site itself
            duration, site = float(spec), trigger
        if duration <= 0:
            return False
        interval = DelayInterval(
            thread_id=thread.tid,
            start=self.clock,
            end=self.clock + duration,
            site=site,
            run_id=self.log.run_id if self.log else 0,
        )
        self.delays.append(interval)
        if self.log is not None:
            self.log.add_delay(interval)
        thread.pending = syscall
        thread.delay_paid = True
        thread.wake_at = self.clock + duration
        thread.park_start = self.clock
        self._set_state(thread, ThreadState.SLEEPING)
        return True

    # -- event emission -------------------------------------------------------------------

    def _emit(
        self,
        thread: SimThread,
        optype: OpType,
        name: str,
        address: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Trace one operation.  The event is built once, already
        stamped with the log's ``run_id`` and next ``seq``, so
        ``TraceLog.append`` stores it as it is."""
        log = self.log
        if log is not None:
            event = TraceEvent(
                timestamp=self.clock,
                thread_id=thread.tid,
                optype=optype,
                name=name,
                address=address,
                run_id=log.run_id,
                seq=len(log.events),
                local_time=thread.local_clock,
                meta=meta or {},
            )
            if self.event_filter is None or self.event_filter(event):
                log.append(event)
        self._advance(thread)

    def _advance(self, thread: SimThread) -> None:
        """Advance the clock by one jittered op cost, charging the thread.

        Jitter is mild (±10%): instruction timing is far more stable than
        blocking time, which is exactly what makes the paper's
        Acquisition-Time-Varies signal work.
        """
        dt = self.op_cost * (0.9 + 0.2 * self.rng.random())
        self.clock += dt
        thread.local_clock += dt


__all__ = ["DEFAULT_OP_COST", "DelaySpec", "Kernel"]
