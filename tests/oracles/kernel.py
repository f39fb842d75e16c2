"""The scan-based scheduler loop: the reference for the event-driven one.

:class:`ScanKernel` is the historical :class:`~repro.sim.kernel.Kernel`
loop.  Every step walks ``threads`` to wake due sleepers, rebuilds the
runnable list by filtering ``threads``, and finds the clock jump, the
blocked set and the "another thread is runnable" test by further scans;
the policy's ``defer`` is asked whether or not it overrides the base
one.  Everything else — syscall dispatch, delay injection, event
emission — is production's, unchanged.  State changes are plain
assignments (:meth:`ScanKernel._set_state`), so none of the production
kernel's runnable list, sleeper heap or blocked count is read.  The
differential tests hold the production kernel to exactly this
schedule: same trace, steps, delays, thread errors and failures.
"""

from repro.sim.errors import DeadlockError, StepLimitExceeded
from repro.sim.kernel import Kernel
from repro.sim.syscalls import Syscall
from repro.sim.thread import SimThread, ThreadState
from repro.trace.optypes import OpType


class ScanKernel(Kernel):
    """:class:`~repro.sim.kernel.Kernel` scheduled by scanning threads."""

    def _set_state(self, thread: SimThread, state: ThreadState) -> None:
        thread.state = state

    def run(self) -> None:
        while True:
            self._wake_sleepers()
            runnable = [
                t for t in self.threads if t.state is ThreadState.RUNNABLE
            ]
            if not runnable:
                sleepers = [
                    t for t in self.threads if t.state is ThreadState.SLEEPING
                ]
                if sleepers:
                    self.clock = min(t.wake_at for t in sleepers)
                    continue
                blocked = [
                    t for t in self.threads if t.state is ThreadState.BLOCKED
                ]
                if blocked:
                    raise DeadlockError([repr(t) for t in blocked])
                return  # all finished
            thread = self.policy.choose(runnable, self.steps)
            self._step(thread)
            self.steps += 1
            if self.steps > self.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {self.max_steps} scheduler steps"
                )

    def _wake_sleepers(self) -> None:
        for thread in self.threads:
            if (
                thread.state is ThreadState.SLEEPING
                and thread.wake_at <= self.clock + 1e-12
            ):
                thread.state = ThreadState.RUNNABLE
                thread.local_clock += max(
                    0.0, self.clock - thread.park_start
                )

    def _maybe_defer(
        self, thread: SimThread, syscall: Syscall, optype: OpType, name: str
    ) -> bool:
        if not any(
            t is not thread and t.state is ThreadState.RUNNABLE
            for t in self.threads
        ):
            return False
        if not self.policy.defer(thread, optype, name):
            return False
        thread.pending = syscall
        return True
