"""Acquire/release window extraction (§4.1) and refinement (§3).

Given one run's trace, find pairs of conflicting accesses within ``Near``
seconds of each other and extract, for each pair, the *release window*
(operations of the earlier access's thread between the two accesses) and
the *acquire window* (operations of the later access's thread).

The conflicting endpoints themselves join their windows when capable: a
write endpoint is a release candidate and a read endpoint an acquire
candidate — that is how flag-variable synchronizations (Write-f / Read-f)
become inferable at all.

A window is *provably racy* when it cannot contain a release (no
write/exit on the release side) or cannot contain an acquire (no
read/enter on the acquire side); such a pair is remembered as an observed
data race and its Mostly-Protected terms are removed (§4.3).

When the Perturber injected a delay inside a window, Figure 2 (b)/(c)
refinement applies:

* delay at candidate ``r`` did **not** propagate → the real release lies
  between ``a`` and ``r``: truncate the release window before the delay
  and drop ``r``;
* delay **did** propagate → trust ``r`` and shrink the acquire window to
  the operations between the delay's end and ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..trace.events import DelayInterval, TraceEvent
from ..trace.log import TraceLog
from ..trace.optypes import OpRef, OpType
from .index import ConflictGroups, TraceIndex

#: Static identity of a conflicting-access pair: ordered (earlier, later).
PairKey = Tuple[OpRef, OpRef]


@dataclass
class Window:
    """One acquire/release window observation for a conflicting pair."""

    pair_key: PairKey
    run_id: int
    a_time: float
    b_time: float
    #: Dynamic-instance counts per static op on each side.  Keys are the
    #: *candidate* ops (capability filtering happens in the encoder, so
    #: the Read-Acq & Write-Rel ablation can reuse the same windows).
    release_side: Dict[OpRef, int] = field(default_factory=dict)
    acquire_side: Dict[OpRef, int] = field(default_factory=dict)
    racy: bool = False
    refined: bool = False

    def release_ops(self) -> Set[OpRef]:
        return set(self.release_side)

    def acquire_ops(self) -> Set[OpRef]:
        return set(self.acquire_side)


#: ``unsafe_api`` meta values that make an ENTER a conflicting access.
_API_KINDS = ("read", "write")


#: Op types that can possibly play a release / acquire role (used for racy
#: detection, which is about *capability*, not about the solver's choice).
_RELEASE_CAPABLE = (OpType.WRITE, OpType.EXIT)
_ACQUIRE_CAPABLE = (OpType.READ, OpType.ENTER)


class WindowExtractor:
    """Extracts windows from one run's log.

    Accesses are bucketed into conflict groups and every trace query is
    answered through a per-log :class:`~repro.core.index.TraceIndex`.
    The historical all-pairs scan this reproduces window for window
    lives on as a test oracle (``tests/oracles/windows.py``).
    """

    def __init__(
        self,
        near: float,
        window_cap: int,
        use_unsafe_api_list: bool = True,
        refine: bool = True,
        pre_gap: float = 0.02,
    ) -> None:
        self.near = near
        self.window_cap = window_cap
        self.use_unsafe_api_list = use_unsafe_api_list
        self.refine = refine
        #: How far before Ta an injected delay still counts as relevant to
        #: the window — a delay ending just before ``a`` postponed ``a``
        #: itself, so the window's timing was manufactured by the Perturber.
        self.pre_gap = pre_gap

    def extract(self, log: TraceLog) -> List[Window]:
        """Windows of ``log``, in all-pairs enumeration order.

        Raises ``ValueError`` when ``log`` is not time-ordered with dense
        ``seq`` stamps: windows are undefined over such a trace, the
        kernel never produces one, and a corrupt cache entry must fail
        loudly rather than yield silently wrong windows.
        """
        index = TraceIndex(log)
        read, write, enter = OpType.READ, OpType.WRITE, OpType.ENTER
        # Conflicting-access candidates: heap reads/writes, plus call
        # sites of thread-unsafe library APIs (the optional API list of
        # §4.1).
        if self.use_unsafe_api_list:
            accesses = [
                e
                for e in log.events
                if (op := e.optype) is read
                or op is write
                or (op is enter and e.meta.get("unsafe_api") in _API_KINDS)
            ]
        else:
            accesses = [
                e for e in log.events if (op := e.optype) is read or op is write
            ]
        # Conflict-group scan.  Iterating accesses in log order and, per
        # endpoint, only that endpoint's conflict group reproduces the
        # all-pairs enumeration order exactly: group members are a
        # subsequence of the access list, and any member past the
        # ``Near`` cutoff would also have broken the all-pairs scan
        # (timestamps are non-decreasing).  Two skip rules keep the scan
        # to members that can still become windows; both are exact:
        #
        # * same-thread runs: a member on a's thread is never paired, so
        #   the scan jumps to the end of its run.  Times do not decrease,
        #   so when a skipped member was past ``Near`` the jump target is
        #   too and the cutoff still breaks the scan there.
        # * capped endpoints: an endpoint whose every formable key
        #   ``(a, r)`` — one per group kind ``r`` that a or r writes — is
        #   already capped pairs with nothing; counts only grow.
        groups = ConflictGroups(accesses, index.ref_ids)
        windows: List[Window] = []
        counts: Dict[Tuple[int, int], int] = {}
        capped: Set[Tuple[int, int]] = set()
        near = self.near
        cap = self.window_cap
        for a, (group, position) in zip(accesses, groups.membership):
            writes = group.writes
            a_write = writes[position]
            rids = group.rids
            a_rid = rids[position]
            if capped:
                for r, r_write in group.kinds:
                    if (a_write or r_write) and (a_rid, r) not in capped:
                        break
                else:
                    continue
            a_time = a.timestamp
            a_thread = a.thread_id
            times = group.times
            threads = group.threads
            run_end = group.run_end
            n = len(times)
            # Members right after a on a's own thread are never paired.
            j = run_end[position]
            while j < n:
                if times[j] - a_time > near:
                    break
                if threads[j] == a_thread:
                    j = run_end[j]
                    continue
                if a_write or writes[j]:
                    key = (a_rid, rids[j])
                    seen = counts.get(key, 0)
                    if seen < cap:
                        counts[key] = seen + 1
                        if seen + 1 >= cap:
                            capped.add(key)
                        windows.append(
                            self._pair_window(log, a, group.events[j], index)
                        )
                j += 1
        return windows

    # -- construction -----------------------------------------------------------

    def _pair_window(
        self,
        log: TraceLog,
        a: TraceEvent,
        b: TraceEvent,
        index: TraceIndex,
    ) -> Window:
        """The window of pair ``(a, b)``: the body is two per-thread
        bisected slices (other threads' events never join a side) and
        per-side occurrence counting runs on interned small-int ref ids,
        converting to :class:`OpRef` keys once per distinct op.
        First-occurrence key order — which downstream encoding order (and
        hence float identity) depends on — is preserved."""
        ref_ids = index.ref_ids
        ref_objs = index.ref_objs
        window = Window(
            pair_key=(ref_objs[ref_ids[a.seq]], ref_objs[ref_ids[b.seq]]),
            run_id=log.run_id,
            a_time=a.timestamp,
            b_time=b.timestamp,
        )
        release_events: List[TraceEvent] = [a]
        release_events.extend(
            index.thread_between(a.thread_id, a.timestamp, b.timestamp)
        )
        acquire_events: List[TraceEvent] = [b]
        acquire_events.extend(
            index.thread_between(b.thread_id, a.timestamp, b.timestamp)
        )

        if self.refine:
            release_events, acquire_events = self._apply_delays(
                a, b, release_events, acquire_events, window, index
            )

        # A blocking call that was already in progress at Ta (or across an
        # injected delay) but returned inside the window was *executing
        # between Ta and Tb*: its invocation is a legitimate acquire
        # candidate (think Monitor.Enter or Task.Wait blocked across the
        # release).  Re-join the matching ENTER when it is not present.
        present = {e.seq for e in acquire_events}
        spanning: List[TraceEvent] = []
        for e in acquire_events:
            if e.optype is OpType.EXIT:
                enter = index.exit_to_enter.get(e.seq)
                if enter is not None and enter.seq not in present:
                    spanning.append(enter)
                    present.add(enter.seq)
        acquire_events.extend(spanning)

        rel_counts: Dict[int, int] = {}
        for e in release_events:
            rid = ref_ids[e.seq]
            rel_counts[rid] = rel_counts.get(rid, 0) + 1
        acq_counts: Dict[int, int] = {}
        for e in acquire_events:
            rid = ref_ids[e.seq]
            acq_counts[rid] = acq_counts.get(rid, 0) + 1
        window.release_side = {
            ref_objs[rid]: count for rid, count in rel_counts.items()
        }
        window.acquire_side = {
            ref_objs[rid]: count for rid, count in acq_counts.items()
        }

        window.racy = self._is_provably_racy(window)
        return window

    # -- Figure 2 (b)/(c) refinement ------------------------------------------------

    def _apply_delays(
        self,
        a: TraceEvent,
        b: TraceEvent,
        release_events: List[TraceEvent],
        acquire_events: List[TraceEvent],
        window: Window,
        index: TraceIndex,
    ) -> Tuple[List[TraceEvent], List[TraceEvent]]:
        # The first delay in a's thread that shaped this window: it
        # started inside the window, or it ended just before ``a``
        # (postponing ``a`` and everything after it).
        delay = index.relevant_delay(
            a.thread_id, a.timestamp - self.pre_gap, b.timestamp
        )
        if delay is None:
            return release_events, acquire_events
        window.refined = True
        if self._propagated(b, delay):
            # Figure 2 (c): trust r; acquire window shrinks to (r, b].
            # Calls blocked across the delay keep their EXITs here and are
            # re-joined by the spanning-call rule in _pair_window; the
            # call b's thread is still inside when the delay ends (the one
            # actually blocked on the release) is recovered explicitly.
            refined = [
                e for e in acquire_events if e.timestamp >= delay.end - 1e-12
            ]
            blocked = index.innermost_open_call(b.thread_id, delay.end)
            if blocked is not None and all(
                e.seq != blocked.seq for e in refined
            ):
                refined.append(blocked)
            if b not in refined:
                refined.append(b)
            acquire_events = refined
        elif delay.start > a.timestamp:
            # Figure 2 (b): the real release is between a and r; drop r and
            # everything at/after the delayed instance.  (When the delay
            # preceded a itself, nothing can be concluded about r.)
            release_events = [
                e
                for e in release_events
                if e.timestamp < delay.start - 1e-12 and e.ref != delay.site
            ]
            if a.ref != delay.site:
                release_events.append(a)
        return release_events, acquire_events

    @staticmethod
    def _propagated(b: TraceEvent, delay: DelayInterval) -> bool:
        """The delay propagated when ``b`` could not execute until it ended
        (the cascading-delay criterion of §3 / TSVD).  ``b`` executing
        *while* the delaying thread was frozen is definitive refutation —
        the delayed candidate cannot be what orders ``a`` before ``b``.

        Thread quietness is deliberately not required: a spin-waiting
        victim keeps polling (and tracing events) during the delay yet is
        still blocked by it.
        """
        return b.timestamp >= delay.end - 1e-12

    # -- racy detection ---------------------------------------------------------------

    @staticmethod
    def _is_provably_racy(window: Window) -> bool:
        has_release_capable = any(
            ref.optype in _RELEASE_CAPABLE for ref in window.release_side
        )
        has_acquire_capable = any(
            ref.optype in _ACQUIRE_CAPABLE for ref in window.acquire_side
        )
        return not (has_release_capable and has_acquire_capable)


__all__ = ["PairKey", "Window", "WindowExtractor"]
