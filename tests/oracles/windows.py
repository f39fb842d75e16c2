"""The all-pairs window extractor: the reference for the indexed scan.

:class:`AllPairsWindowExtractor` is the historical O(n²) extraction
loop: every access is paired with every later access within ``Near``,
window bodies are linear scans of the log, and refinement's trace
queries replay the log from event 0 (:class:`LinearScanQueries`).
Refinement itself is production's
:meth:`~repro.core.windows.WindowExtractor._apply_delays`, unchanged —
it only ever asks the three questions :class:`LinearScanQueries`
answers.  The differential tests hold the production extractor to
exactly these windows: same order, same sides, same key order.
"""

from typing import Dict, List, Optional, Tuple

from repro.core.windows import PairKey, Window, WindowExtractor
from repro.trace.events import DelayInterval, TraceEvent
from repro.trace.log import TraceLog
from repro.trace.optypes import OpType


def _is_access(event: TraceEvent) -> bool:
    """Conflicting-access candidates: heap reads/writes, plus call sites of
    thread-unsafe library APIs (the optional API list of §4.1)."""
    if event.is_memory:
        return True
    return (
        event.optype is OpType.ENTER
        and event.meta.get("unsafe_api") in ("read", "write")
    )


def _is_write_access(event: TraceEvent) -> bool:
    if event.is_memory:
        return event.is_write
    return event.meta.get("unsafe_api") == "write"


def _accesses_conflict(a: TraceEvent, b: TraceEvent) -> bool:
    if a.thread_id == b.thread_id:
        return False
    if a.address != b.address:
        return False
    if a.is_memory != b.is_memory:
        return False
    if a.is_memory and a.name != b.name:
        return False  # same field of the same object
    return _is_write_access(a) or _is_write_access(b)


def _match_calls(log: TraceLog) -> Dict[int, TraceEvent]:
    """Map each EXIT event's seq to its matching ENTER event (per-thread
    call-stack pairing)."""
    stacks: Dict[Tuple[int, str], List[TraceEvent]] = {}
    matched: Dict[int, TraceEvent] = {}
    for e in log:
        if e.optype is OpType.ENTER:
            stacks.setdefault((e.thread_id, e.name), []).append(e)
        elif e.optype is OpType.EXIT:
            stack = stacks.get((e.thread_id, e.name))
            if stack:
                matched[e.seq] = stack.pop()
    return matched


class LinearScanQueries:
    """:class:`~repro.core.index.TraceIndex`'s refinement queries,
    answered by scanning the log."""

    def __init__(self, log: TraceLog) -> None:
        self.log = log
        self.exit_to_enter = _match_calls(log)

    def relevant_delay(
        self, thread_id: int, earliest_end: float, before: float
    ) -> Optional[DelayInterval]:
        """Earliest-starting delay of ``thread_id`` with
        ``start < before`` and ``end > earliest_end``."""
        candidates = [
            d
            for d in self.log.delays
            if d.thread_id == thread_id
            and d.start < before
            and d.end > earliest_end
        ]
        return min(candidates, key=lambda d: d.start) if candidates else None

    def innermost_open_call(
        self, thread_id: int, at_time: float
    ) -> Optional[TraceEvent]:
        """ENTER event of the innermost call ``thread_id`` is inside at
        ``at_time`` (per-thread ENTER/EXIT stack scan)."""
        stack: List[TraceEvent] = []
        for e in self.log:
            if e.timestamp >= at_time:
                break
            if e.thread_id != thread_id:
                continue
            if e.optype is OpType.ENTER:
                stack.append(e)
            elif e.optype is OpType.EXIT:
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i].name == e.name:
                        del stack[i:]
                        break
        return stack[-1] if stack else None


class AllPairsWindowExtractor(WindowExtractor):
    """All-pairs, linear-scan window extraction (the reference path)."""

    def extract(self, log: TraceLog) -> List[Window]:
        accesses = [e for e in log if _is_access(e)]
        if not self.use_unsafe_api_list:
            accesses = [e for e in accesses if e.is_memory]
        queries = LinearScanQueries(log)
        windows: List[Window] = []
        counts: Dict[PairKey, int] = {}
        for i, a in enumerate(accesses):
            for b in accesses[i + 1:]:
                if b.timestamp - a.timestamp > self.near:
                    break
                if not _accesses_conflict(a, b):
                    continue
                key = (a.ref, b.ref)
                if counts.get(key, 0) >= self.window_cap:
                    continue
                counts[key] = counts.get(key, 0) + 1
                windows.append(self._build_window(log, a, b, queries))
        return windows

    def _build_window(
        self,
        log: TraceLog,
        a: TraceEvent,
        b: TraceEvent,
        queries: LinearScanQueries,
    ) -> Window:
        window = Window(
            pair_key=(a.ref, b.ref),
            run_id=log.run_id,
            a_time=a.timestamp,
            b_time=b.timestamp,
        )
        release_events: List[TraceEvent] = [a]
        acquire_events: List[TraceEvent] = [b]
        for e in log.between(a.timestamp, b.timestamp):
            if e.thread_id == a.thread_id:
                release_events.append(e)
            elif e.thread_id == b.thread_id:
                acquire_events.append(e)

        if self.refine:
            release_events, acquire_events = self._apply_delays(
                a, b, release_events, acquire_events, window, queries
            )

        # Spanning-call rule: re-join the ENTER of a call that returned
        # inside the window when it is not present.
        present = {e.seq for e in acquire_events}
        spanning: List[TraceEvent] = []
        for e in acquire_events:
            if e.optype is OpType.EXIT:
                enter = queries.exit_to_enter.get(e.seq)
                if enter is not None and enter.seq not in present:
                    spanning.append(enter)
                    present.add(enter.seq)
        acquire_events.extend(spanning)

        for e in release_events:
            window.release_side[e.ref] = window.release_side.get(e.ref, 0) + 1
        for e in acquire_events:
            window.acquire_side[e.ref] = window.acquire_side.get(e.ref, 0) + 1

        window.racy = self._is_provably_racy(window)
        return window


__all__ = ["AllPairsWindowExtractor", "LinearScanQueries"]
