"""Per-log indexes for window extraction.

A naive extractor re-scans the whole trace for every window it builds:
the window body walks the log from event 0, "which call is this thread
inside?" replays the thread's call stack from the start, and the
conflicting-pair scan considers every later access for every endpoint.
:class:`TraceIndex` precomputes, once per log:

* **conflict groups** — accesses bucketed by the static identity that
  can ever conflict (``(is_memory, address, field)`` for heap accesses,
  ``(is_memory, address)`` for thread-unsafe API calls), so the pair
  scan only visits accesses that share a group;
* **per-thread timestamp arrays** — bisect-able views of each thread's
  events, so window bodies are slices instead of scans;
* **open-call interval index** — per-thread change points of the
  innermost open ENTER, so "which call was thread T inside at time t?"
  is one bisect;
* **per-thread delay lists** — the Perturber's injected delays sorted
  by start per thread, so refinement stops filtering the global list;
* **ENTER↔EXIT matching** — the same per-thread call-stack pairing the
  extractor always needed, computed in the same pass.

Every query is defined to return *exactly* what the corresponding
linear scan returns: the all-pairs reference extractor in
``tests/oracles/windows.py`` answers the same queries that way, and the
two are differentially tested for equality.  The index is only defined
over time-ordered logs with dense ``seq`` stamps (as the kernel always
produces); any other log is rejected with ``ValueError``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from ..trace.events import DelayInterval, TraceEvent
from ..trace.log import TraceLog
from ..trace.optypes import OpRef, OpType

#: Static conflict-group identity of one access event.
GroupKey = Tuple[bool, int, Optional[str]]


def _first_defect(events: Sequence[TraceEvent]) -> Optional[str]:
    """Why ``events`` cannot be indexed, or ``None``: the first event
    whose ``seq`` is not its position (``seq`` keys the ref table) or
    whose timestamp runs backwards (bodies are bisected by time)."""
    last = float("-inf")
    for i, e in enumerate(events):
        if e.seq != i:
            return f"seq not dense: event {i} has seq {e.seq}"
        if e.timestamp < last:
            return (
                f"timestamp ran backwards at seq {i}: "
                f"{e.timestamp} < {last}"
            )
        last = e.timestamp
    return None


class TraceIndex:
    """Precomputed queries over one run's :class:`TraceLog`.

    Raises ``ValueError`` for a log that is not time-ordered with dense
    ``seq`` stamps.
    """

    def __init__(self, log: TraceLog) -> None:
        events = log.events
        defect = _first_defect(events)
        if defect is not None:
            raise ValueError(f"cannot index run {log.run_id}: {defect}")
        # -- interned static refs (one OpRef per distinct (name, optype)) --
        #: ``ref_ids[event.seq]`` is a dense small-int id of the event's
        #: static op; ``ref_objs[rid]`` the shared OpRef instance.  Lets
        #: the extractor count per-side occurrences with int keys and only
        #: touch OpRef hashing once per distinct op per window.
        self.ref_ids: List[int] = []
        self.ref_objs: List[OpRef] = []
        intern: Dict[Tuple[str, OpType], int] = {}
        # -- per-thread event slices (window bodies bisect these) ---------
        self._thread_times: Dict[int, List[float]] = {}
        self._thread_events: Dict[int, List[TraceEvent]] = {}
        # -- ENTER↔EXIT matching and open-call change points (one pass) --
        stacks: Dict[Tuple[int, str], List[TraceEvent]] = {}
        open_stacks: Dict[int, List[TraceEvent]] = {}
        self.exit_to_enter: Dict[int, TraceEvent] = {}
        #: Per thread: parallel (times, innermost-ENTER-after-event) lists.
        self._open_times: Dict[int, List[float]] = {}
        self._open_states: Dict[int, List[Optional[TraceEvent]]] = {}
        for e in events:
            rid = intern.get((e.name, e.optype))
            if rid is None:
                rid = len(self.ref_objs)
                intern[(e.name, e.optype)] = rid
                self.ref_objs.append(OpRef(e.name, e.optype))
            self.ref_ids.append(rid)
            tt = self._thread_times.get(e.thread_id)
            if tt is None:
                tt = self._thread_times[e.thread_id] = []
                self._thread_events[e.thread_id] = []
            tt.append(e.timestamp)
            self._thread_events[e.thread_id].append(e)
            if e.optype is OpType.ENTER:
                stacks.setdefault((e.thread_id, e.name), []).append(e)
                stack = open_stacks.setdefault(e.thread_id, [])
                stack.append(e)
            elif e.optype is OpType.EXIT:
                matched = stacks.get((e.thread_id, e.name))
                if matched:
                    self.exit_to_enter[e.seq] = matched.pop()
                stack = open_stacks.setdefault(e.thread_id, [])
                # Innermost matching ENTER and everything above it close
                # (an EXIT with no open match closes nothing).
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i].name == e.name:
                        del stack[i:]
                        break
            else:
                continue
            self._open_times.setdefault(e.thread_id, []).append(e.timestamp)
            self._open_states.setdefault(e.thread_id, []).append(
                stack[-1] if stack else None
            )
        # -- per-thread delay intervals, ordered by start --------------------
        self._delays_by_thread: Dict[int, List[DelayInterval]] = {}
        for d in log.delays:
            self._delays_by_thread.setdefault(d.thread_id, []).append(d)
        for delays in self._delays_by_thread.values():
            delays.sort(key=lambda d: d.start)  # stable: ties keep log order

    # -- queries ---------------------------------------------------------------

    def thread_between(
        self, thread_id: int, t_start: float, t_end: float
    ) -> Sequence[TraceEvent]:
        """``thread_id``'s events with ``t_start < t < t_end``, in log
        order (the thread's events are a subsequence of the log)."""
        times = self._thread_times.get(thread_id)
        if not times:
            return ()
        lo = bisect_right(times, t_start)
        hi = bisect_left(times, t_end, lo)
        return self._thread_events[thread_id][lo:hi]

    def innermost_open_call(
        self, thread_id: int, at_time: float
    ) -> Optional[TraceEvent]:
        """ENTER of the innermost call ``thread_id`` is inside at
        ``at_time`` (events strictly before ``at_time`` considered)."""
        times = self._open_times.get(thread_id)
        if not times:
            return None
        idx = bisect_left(times, at_time)
        if idx == 0:
            return None
        return self._open_states[thread_id][idx - 1]

    def relevant_delay(
        self, thread_id: int, earliest_end: float, before: float
    ) -> Optional[DelayInterval]:
        """Earliest-starting delay of ``thread_id`` with
        ``start < before`` and ``end > earliest_end``."""
        for d in self._delays_by_thread.get(thread_id, ()):
            if d.start >= before:
                break
            if d.end > earliest_end:
                return d
        return None


class ConflictGroup:
    """Events of one conflict group plus parallel scan arrays, so the
    pair scan reads plain floats/ints/bools instead of event attributes.

    ``run_end[j]`` is the first later position whose thread differs
    from member ``j``'s (``len(group)`` when there is none), so a scan
    can step over a whole same-thread run at once.  When the groups were
    built with ref ids, ``rids[j]`` is member ``j``'s static-op id and
    ``kinds`` the group's distinct ``(ref id, is_write)`` pairs in
    first-appearance order (a heap group has at most two).
    """

    __slots__ = ("events", "times", "threads", "writes", "run_end", "rids", "kinds")

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.times: List[float] = []
        self.threads: List[int] = []
        self.writes: List[bool] = []
        self.run_end: List[int] = []
        self.rids: List[int] = []
        self.kinds: Tuple[Tuple[int, bool], ...] = ()

    def _seal(self, ref_ids: Optional[Sequence[int]]) -> None:
        """Derive ``run_end`` (and, given ``ref_ids``, ``rids`` and
        ``kinds``) once every member has been added."""
        threads = self.threads
        n = len(threads)
        run_end = [n] * n
        for j in range(n - 2, -1, -1):
            if threads[j] == threads[j + 1]:
                run_end[j] = run_end[j + 1]
            else:
                run_end[j] = j + 1
        self.run_end = run_end
        if ref_ids is not None:
            self.rids = [ref_ids[e.seq] for e in self.events]
            self.kinds = tuple(dict.fromkeys(zip(self.rids, self.writes)))

    def __len__(self) -> int:
        return len(self.events)


class ConflictGroups:
    """Access events bucketed by conflict group, preserving log order.

    ``ref_ids`` (a :class:`TraceIndex`'s per-``seq`` ids) additionally
    gives every group its members' ref ids and distinct kinds, which the
    window scan needs; the predictive detector does without.
    """

    def __init__(
        self,
        accesses: Sequence[TraceEvent],
        ref_ids: Optional[Sequence[int]] = None,
    ) -> None:
        groups: Dict[GroupKey, ConflictGroup] = {}
        self._groups = groups
        #: For each access (in input order): its group and position in it.
        self.membership: List[Tuple[ConflictGroup, int]] = []
        membership = self.membership
        read, write = OpType.READ, OpType.WRITE
        for event in accesses:
            # The bucket within which two accesses can ever conflict:
            # different buckets always fail the address / memory-vs-API /
            # field checks, while thread and write checks stay per pair.
            # One dict lookup per access.
            optype = event.optype
            if optype is read or optype is write:
                key: GroupKey = (True, event.address, event.name)
                is_write = optype is write
            else:
                key = (False, event.address, None)
                is_write = event.meta.get("unsafe_api") == "write"
            group = groups.get(key)
            if group is None:
                group = groups[key] = ConflictGroup()
            membership.append((group, len(group.events)))
            group.events.append(event)
            group.times.append(event.timestamp)
            group.threads.append(event.thread_id)
            group.writes.append(is_write)
        for group in groups.values():
            group._seal(ref_ids)

    def __len__(self) -> int:
        return len(self._groups)

    def groups(self) -> List[Tuple[GroupKey, ConflictGroup]]:
        """All groups in first-appearance (log) order."""
        return list(self._groups.items())


__all__ = [
    "ConflictGroup",
    "ConflictGroups",
    "GroupKey",
    "TraceIndex",
]
