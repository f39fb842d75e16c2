"""Trace well-formedness sanitizer.

Every trace the kernel emits — under any seed, scheduling policy, or
delay plan — must satisfy structural invariants that the Observer, window
extraction, and race detection all silently rely on:

* **balance** — method ENTER/EXIT events pair up per thread with stack
  discipline; a trace from an error-free execution ends with every call
  closed (failed executions may legitimately leave calls open).
* **monotone-time** — global timestamps are non-decreasing in sequence
  order, ``seq`` is dense (0, 1, 2, …), and each thread's ``local_time``
  never runs backwards.
* **attribution** — every event belongs to a plausible thread (positive
  thread id) and carries its log's ``run_id``.
* **frozen-delay** — a thread the Perturber put to sleep emits *nothing*
  strictly inside its delay interval (a frozen thread cannot execute).
* **conflicting-windows** — every window the extractor would build from
  the trace spans a *genuinely* conflicting access pair: different
  threads, same address, at least one write-capable endpoint, endpoints
  within ``Near`` seconds (checked independently of the extractor's own
  pairing logic).

New simulator primitives must preserve these invariants — the fuzz
campaign (``repro fuzz``) enforces them across hundreds of schedules.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.windows import Window, WindowExtractor
from ..sim.runner import TestExecution
from ..trace.events import TraceEvent
from ..trace.log import TraceLog
from ..trace.optypes import OpRef, OpType


@dataclass(frozen=True)
class Violation:
    """One sanitizer finding."""

    code: str        # balance | monotone-time | attribution | ...
    message: str
    test: str = ""   # unit-test qname the trace came from
    run_id: int = -1

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "test": self.test,
            "run_id": self.run_id,
        }


class TraceSanitizer:
    """Checks one execution's trace against the invariants above."""

    def __init__(self, near: float = 1.0, window_cap: int = 15) -> None:
        self.near = near
        self.window_cap = window_cap

    # -- entry points --------------------------------------------------------

    def sanitize(self, execution: TestExecution) -> List[Violation]:
        log = execution.log
        monotone = self._check_monotone(log)
        out: List[Violation] = list(monotone)
        out += self._check_attribution(log)
        out += self._check_balance(log, failed=execution.error is not None)
        out += self._check_frozen_delays(log)
        if not monotone:
            # Windows are defined only over time-ordered, densely stamped
            # traces; the extractor rejects any other log.
            out += self._check_windows(log)
        return [
            Violation(v.code, v.message, execution.test_name, log.run_id)
            for v in out
        ]

    # -- invariants ----------------------------------------------------------

    def _check_monotone(self, log: TraceLog) -> List[Violation]:
        out: List[Violation] = []
        last_t = float("-inf")
        local: Dict[int, float] = {}
        for i, e in enumerate(log):
            if e.seq != i:
                out.append(Violation(
                    "monotone-time",
                    f"seq not dense: event {i} has seq {e.seq}",
                ))
            if e.timestamp < last_t - 1e-12:
                out.append(Violation(
                    "monotone-time",
                    f"timestamp ran backwards at seq {e.seq}: "
                    f"{e.timestamp} < {last_t}",
                ))
            last_t = max(last_t, e.timestamp)
            if e.local_time >= 0:
                prev = local.get(e.thread_id, float("-inf"))
                if e.local_time < prev - 1e-12:
                    out.append(Violation(
                        "monotone-time",
                        f"thread {e.thread_id} local_time ran backwards "
                        f"at seq {e.seq}: {e.local_time} < {prev}",
                    ))
                local[e.thread_id] = max(prev, e.local_time)
        return out

    @staticmethod
    def _check_attribution(log: TraceLog) -> List[Violation]:
        out: List[Violation] = []
        for e in log:
            if e.thread_id < 1:
                out.append(Violation(
                    "attribution",
                    f"event at seq {e.seq} has non-thread id "
                    f"{e.thread_id}",
                ))
            if e.run_id != log.run_id:
                out.append(Violation(
                    "attribution",
                    f"event at seq {e.seq} carries run_id {e.run_id}, "
                    f"log is run {log.run_id}",
                ))
        return out

    @staticmethod
    def _check_balance(log: TraceLog, failed: bool) -> List[Violation]:
        out: List[Violation] = []
        stacks: Dict[int, List[TraceEvent]] = {}
        for e in log:
            if e.optype is OpType.ENTER:
                stacks.setdefault(e.thread_id, []).append(e)
            elif e.optype is OpType.EXIT:
                stack = stacks.get(e.thread_id)
                if not stack:
                    out.append(Violation(
                        "balance",
                        f"EXIT {e.name} at seq {e.seq} on thread "
                        f"{e.thread_id} with no open call",
                    ))
                elif stack[-1].name != e.name:
                    out.append(Violation(
                        "balance",
                        f"EXIT {e.name} at seq {e.seq} on thread "
                        f"{e.thread_id} but innermost open call is "
                        f"{stack[-1].name}",
                    ))
                else:
                    stack.pop()
        if not failed:
            for tid, stack in sorted(stacks.items()):
                for enter in stack:
                    out.append(Violation(
                        "balance",
                        f"ENTER {enter.name} at seq {enter.seq} on "
                        f"thread {tid} never exited",
                    ))
        return out

    @staticmethod
    def _check_frozen_delays(log: TraceLog) -> List[Violation]:
        out: List[Violation] = []
        for d in log.delays:
            if d.duration <= 0:
                out.append(Violation(
                    "frozen-delay",
                    f"delay at {d.site.display()} has non-positive "
                    f"duration {d.duration}",
                ))
            for e in log:
                if (
                    e.thread_id == d.thread_id
                    and d.start + 1e-12 < e.timestamp < d.end - 1e-12
                ):
                    out.append(Violation(
                        "frozen-delay",
                        f"thread {d.thread_id} emitted {e.ref.display()} "
                        f"at {e.timestamp} inside its delay "
                        f"[{d.start}, {d.end}]",
                    ))
        return out

    def _check_windows(self, log: TraceLog) -> List[Violation]:
        out: List[Violation] = []
        extractor = WindowExtractor(
            near=self.near, window_cap=self.window_cap
        )
        endpoints = _index_endpoints(log)
        for window in extractor.extract(log):
            violation = self._verify_window_conflict(endpoints, window)
            if violation is not None:
                out.append(violation)
        return out

    def _verify_window_conflict(
        self, endpoints: _Endpoints, window: Window
    ) -> Optional[Violation]:
        """Independently re-derive the endpoints and check they conflict."""
        a_ref, b_ref = window.pair_key
        label = f"window ({a_ref.display()}, {b_ref.display()})"
        a_events = _events_at(endpoints, a_ref, window.a_time)
        b_events = _events_at(endpoints, b_ref, window.b_time)
        if not (a_events and b_events):
            return Violation(
                "conflicting-windows",
                f"{label} endpoints not found in trace at "
                f"({window.a_time}, {window.b_time})",
            )
        for a in a_events:
            for b in b_events:
                writes = self._writes(a) or self._writes(b)
                if (
                    a.thread_id != b.thread_id
                    and a.address == b.address
                    and writes
                    and b.timestamp - a.timestamp <= self.near + 1e-9
                ):
                    return None
        return Violation(
            "conflicting-windows",
            f"{label} endpoints do not genuinely conflict "
            f"(threads/address/write capability/Near check failed)",
        )

    @staticmethod
    def _writes(e: TraceEvent) -> bool:
        if e.is_memory:
            return e.is_write
        return e.meta.get("unsafe_api") == "write"


#: A log's events grouped by static op ``(name, optype)``: per group,
#: the timestamps in ascending order and the events in the same order.
_Endpoints = Dict[Tuple[str, OpType], Tuple[List[float], List[TraceEvent]]]


def _index_endpoints(log: TraceLog) -> _Endpoints:
    """Group a log's events by static op, sorted by timestamp.

    The window check only runs on logs that passed the monotone check,
    so each group is already in time order up to the 1e-12 jitter that
    check tolerates; the stable sort absorbs that jitter in linear time.
    """
    groups: Dict[Tuple[str, OpType], List[TraceEvent]] = {}
    for e in log:
        groups.setdefault((e.name, e.optype), []).append(e)
    endpoints: _Endpoints = {}
    for key, events in groups.items():
        events.sort(key=lambda e: e.timestamp)
        endpoints[key] = ([e.timestamp for e in events], events)
    return endpoints


def _events_at(
    endpoints: _Endpoints, ref: OpRef, t: float
) -> List[TraceEvent]:
    """The instances of ``ref`` stamped within 1e-12 of ``t``, in time
    order.

    ``abs(x - t) < 1e-12`` holds on a contiguous run of any sorted list
    (floating-point subtraction is monotone in ``x``), so the run is
    found by walking out from ``t``'s insertion point.
    """
    group = endpoints.get((ref.name, ref.optype))
    if group is None:
        return []
    times, events = group
    lo = hi = bisect_left(times, t)
    while lo > 0 and abs(times[lo - 1] - t) < 1e-12:
        lo -= 1
    while hi < len(times) and abs(times[hi] - t) < 1e-12:
        hi += 1
    return events[lo:hi]


def sanitize_execution(
    execution: TestExecution, near: float = 1.0, window_cap: int = 15
) -> List[Violation]:
    """Convenience wrapper: sanitize one execution's trace."""
    return TraceSanitizer(near=near, window_cap=window_cap).sanitize(
        execution
    )


def trace_digest(executions: Iterable[TestExecution]) -> str:
    """Canonical content hash of a set of executions' traces.

    Addresses are process-dependent (heap object ids), so they are
    *renumbered* by first appearance per trace — two runs producing the
    same interleaving digest identically even across processes.
    """
    payload = []
    for execution in executions:
        renumber: Dict[int, int] = {}
        events = []
        for e in execution.log:
            addr = renumber.setdefault(e.address, len(renumber))
            events.append([
                round(e.timestamp, 9), e.thread_id, e.optype.value,
                e.name, addr, round(e.local_time, 9),
            ])
        payload.append({
            "test": execution.test_name,
            "run_id": execution.log.run_id,
            "error": execution.error,
            "events": events,
            "delays": [
                [d.thread_id, round(d.start, 9), round(d.end, 9),
                 d.site.name, d.site.optype.value]
                for d in execution.log.delays
            ],
        })
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


__all__ = [
    "TraceSanitizer",
    "Violation",
    "sanitize_execution",
    "trace_digest",
]
