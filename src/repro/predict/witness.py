"""Witness reorderings for predicted races.

A predicted race is only reported when a concrete **witness reordering**
exists: a new trace, drawn injectively from the original run's events,
that (1) preserves every thread's program order and is program-order
closed, (2) gives every acquire the *same* pairing release — and every
event on a statically-initialized address the same publish — as the
source trace, and (3) ends with the two racy accesses co-enabled (the
final two events).  The witness is materialized as a fresh
:class:`~repro.trace.log.TraceLog` (timestamps re-stamped onto a uniform
grid, original positions kept in ``meta["witness_of"]``) and validated
both structurally and through the fuzz layer's
:class:`~repro.fuzz.sanitizer.TraceSanitizer`.

Construction is a deterministic constraint solve over the pair's ideal:

* program-order edges chain each thread's events;
* each acquire depends on its pairing release (``pair(a) → a``), and
  any *other* release on the same channel is pushed outside the
  ``(pair(a), a)`` span — before the pairing release when the original
  trace had it there, after the acquire otherwise (races whose ideal
  forces a channel conflict that cannot be resolved this way are
  rejected rather than mis-witnessed);
* static-init publishes are constrained identically.

The resulting DAG is linearized by Kahn's algorithm with a min-``seq``
heap (deterministic), the racy pair is appended in whichever order
keeps its own pairings intact, and the witness is re-validated from
scratch — the detector drops any prediction whose witness fails.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from ..racedet.spec import HappensBeforeSpec
from ..trace.events import TraceEvent
from ..trace.log import TraceLog
from .closure import (
    PrefixVector,
    SyncPairings,
    SyncPreservingClosure,
    sync_pairings,
)

#: Uniform timestamp grid of witness logs (any positive spacing yields a
#: well-formed log; the sanitizer's window checks are self-consistent).
WITNESS_TIME_STEP = 0.001

#: ``meta`` key carrying each witness event's original ``seq``.
WITNESS_OF = "witness_of"


def build_witness(
    log: TraceLog,
    spec: HappensBeforeSpec,
    closure: SyncPreservingClosure,
    a_seq: int,
    b_seq: int,
    ideal: PrefixVector,
) -> Optional[TraceLog]:
    """A sync-preserving witness reordering exposing ``(a, b)``, or
    ``None`` when the pair's channel constraints are unsatisfiable.

    ``spec`` is the spec ``closure`` was built with; the builder reads
    every event's roles from the closure's per-event flags.
    """
    body = closure.ideal_events(ideal)
    order = _linearize_body(log, closure, body, (a_seq, b_seq))
    if order is None:
        return None
    tail = _order_tail(log, closure, order, a_seq, b_seq)
    if tail is None:
        return None
    return _materialize(log, order + tail)


# -- constraint graph ----------------------------------------------------------


def _linearize_body(
    log: TraceLog,
    closure: SyncPreservingClosure,
    body: List[int],
    tail: Tuple[int, int],
) -> Optional[List[int]]:
    """Linearize the ideal under program order + pairing constraints."""
    events = log.events
    member: Set[int] = set(body)
    edges: Set[Tuple[int, int]] = set()

    # Program order within the ideal (each thread's slice is a prefix).
    per_thread: Dict[int, List[int]] = {}
    for seq in body:  # body is in trace order
        per_thread.setdefault(events[seq].thread_id, []).append(seq)
    for chain in per_thread.values():
        for prev, nxt in zip(chain, chain[1:]):
            edges.add((prev, nxt))

    releases_on: Dict[int, List[int]] = {}
    publishes_on: Dict[int, List[int]] = {}
    for seq in body:
        if closure.releases[seq]:
            releases_on.setdefault(events[seq].address, []).append(seq)
        if closure.publishes[seq]:
            publishes_on.setdefault(events[seq].address, []).append(seq)

    pairings = closure.pairings
    constrained = body + [t for t in tail]
    for seq in constrained:
        e = events[seq]
        is_tail = seq in tail
        if seq in pairings.acquires:
            ok = _channel_edges(
                seq, pairings.acquires[seq],
                releases_on.get(e.address, ()), member, is_tail, edges,
            )
            if not ok:
                return None
        if seq in pairings.statics:
            ok = _channel_edges(
                seq, pairings.statics[seq],
                publishes_on.get(e.address, ()), member, is_tail, edges,
            )
            if not ok:
                return None
    return _toposort(member, edges)


def _channel_edges(
    seq: int,
    pair: Optional[int],
    channel_events: "tuple[int, ...] | List[int]",
    member: Set[int],
    is_tail: bool,
    edges: Set[Tuple[int, int]],
) -> bool:
    """Constrain one event's channel so its observed pairing survives.

    ``channel_events`` are the ideal's releases (or publishes) on the
    event's address.  Everything but the pairing itself must stay out of
    the ``(pair, seq)`` span; a constraint that would have to follow a
    tail event is redirected before the pairing instead (tail events are
    last by construction).  Returns ``False`` when unsatisfiable.
    """
    if pair is None:
        for other in channel_events:
            if other == seq:
                continue  # a publish/release never constrains itself
            if is_tail:
                # Nothing may follow the racy pair, so a channel event
                # inside the ideal would land before ``seq`` and change
                # its never-paired status.
                return False
            edges.add((seq, other))
        return True
    if pair not in member:
        # The closure always pulls the pairing in; a missing pairing
        # would make the witness unsoundly re-pair the event.
        return False
    edges.add((pair, seq))
    for other in channel_events:
        if other == pair or other == seq:
            continue
        if other < pair:
            edges.add((other, pair))
        elif is_tail:
            # ``other`` originally ran after the racy access; it must
            # now slot in before the pairing instead.
            edges.add((other, pair))
        else:
            edges.add((seq, other))
    return True


def _toposort(
    member: Set[int], edges: Set[Tuple[int, int]]
) -> Optional[List[int]]:
    """Kahn's algorithm with a min-seq heap; ``None`` on a cycle."""
    successors: Dict[int, List[int]] = {}
    indegree: Dict[int, int] = {seq: 0 for seq in member}
    for src, dst in edges:
        if src in member and dst in member:
            successors.setdefault(src, []).append(dst)
            indegree[dst] += 1
    ready = [seq for seq, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    out: List[int] = []
    while ready:
        seq = heapq.heappop(ready)
        out.append(seq)
        for nxt in successors.get(seq, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(out) != len(member):
        return None  # constraint cycle: no sync-preserving schedule
    return out


def _order_tail(
    log: TraceLog,
    closure: SyncPreservingClosure,
    body_order: List[int],
    a_seq: int,
    b_seq: int,
) -> Optional[List[int]]:
    """Pick the racy pair's final order so its own pairings hold."""
    events = log.events
    last_release: Dict[int, int] = {}
    last_publish: Dict[int, int] = {}
    for seq in body_order:
        if closure.releases[seq]:
            last_release[events[seq].address] = seq
        if closure.publishes[seq]:
            last_publish[events[seq].address] = seq
    for tail in ([a_seq, b_seq], [b_seq, a_seq]):
        if _tail_ok(events, closure, tail, last_release, last_publish):
            return tail
    return None


def _tail_ok(
    events: List[TraceEvent],
    closure: SyncPreservingClosure,
    tail: List[int],
    last_release: Dict[int, int],
    last_publish: Dict[int, int],
) -> bool:
    release_state = dict(last_release)
    pairings = closure.pairings
    for seq in tail:
        e = events[seq]
        if seq in pairings.acquires:
            if release_state.get(e.address) != pairings.acquires[seq]:
                return False
        if seq in pairings.statics:
            if last_publish.get(e.address) != pairings.statics[seq]:
                return False
        if closure.releases[seq]:
            release_state[e.address] = seq
    return True


def _materialize(log: TraceLog, order: List[int]) -> TraceLog:
    """Emit the chosen order as a fresh, re-stamped trace log."""
    witness = TraceLog(run_id=log.run_id)
    for position, seq in enumerate(order):
        e = log.events[seq]
        witness.append(
            TraceEvent(
                timestamp=position * WITNESS_TIME_STEP,
                thread_id=e.thread_id,
                optype=e.optype,
                name=e.name,
                address=e.address,
                local_time=e.local_time,
                meta={**e.meta, WITNESS_OF: seq},
            )
        )
    return witness


# -- validation ----------------------------------------------------------------


def program_order(events: List[TraceEvent]) -> Dict[int, List[int]]:
    """Each thread's event ``seq`` values in log order."""
    by_thread: Dict[int, List[int]] = {}
    for e in events:
        by_thread.setdefault(e.thread_id, []).append(e.seq)
    return by_thread


def validate_witness(
    log: TraceLog,
    witness: TraceLog,
    spec: HappensBeforeSpec,
    a_seq: int,
    b_seq: int,
    near: float = 1.0,
    window_cap: int = 15,
    source_pairings: Optional[SyncPairings] = None,
    source_order: Optional[Dict[int, List[int]]] = None,
) -> List[str]:
    """Check the witness contract from scratch; returns problem strings.

    Independent of the construction: re-derives the permutation mapping,
    program-order closure, sync pairings, and co-enabledness, then runs
    the :class:`~repro.fuzz.sanitizer.TraceSanitizer` over the witness
    (as a truncated execution: the reordering legitimately stops at the
    racy pair, so open calls are allowed, but every other invariant —
    monotone time, attribution, stack discipline, genuinely conflicting
    windows — must hold).

    ``source_pairings`` (``sync_pairings(log.events, spec)``) and
    ``source_order`` (``program_order(log.events)``) are the source log's
    view, computed once per log by a caller validating many witnesses of
    it; ``None`` derives each here.  The witness's own pairings and
    per-thread order are always re-derived from scratch.
    """
    problems: List[str] = []
    origin: List[int] = []
    for e in witness.events:
        seq = e.meta.get(WITNESS_OF, -1)
        if not isinstance(seq, int) or not 0 <= seq < len(log.events):
            problems.append(f"witness event {e.seq} has no valid origin")
            return problems
        origin.append(seq)
    if len(set(origin)) != len(origin):
        problems.append("witness duplicates original events")
    for e, seq in zip(witness.events, origin):
        src = log.events[seq]
        same = (
            e.thread_id == src.thread_id
            and e.optype is src.optype
            and e.name == src.name
            and e.address == src.address
        )
        if not same:
            problems.append(
                f"witness event {e.seq} does not match original {seq}"
            )

    # Program order: each thread's events form a prefix of its original
    # events, in order (plus the racy access as that thread's last step).
    by_thread: Dict[int, List[int]] = {}
    for seq in origin:
        by_thread.setdefault(log.events[seq].thread_id, []).append(seq)
    original_by_thread = (
        source_order if source_order is not None
        else program_order(log.events)
    )
    for tid, seqs in by_thread.items():
        if seqs != original_by_thread[tid][: len(seqs)]:
            problems.append(
                f"thread {tid} order is not a program-order-closed "
                f"prefix of the original trace"
            )

    # Co-enabledness: the racy pair are the witness's final two events.
    if set(origin[-2:]) != {a_seq, b_seq}:
        problems.append("racy pair is not the witness's final two events")
    else:
        a, b = log.events[origin[-2]], log.events[origin[-1]]
        if not a.conflicts_with(b):
            problems.append("witness tail events do not conflict")

    # Sync-preservation: identical pairings, event by event.
    original = (
        source_pairings
        if source_pairings is not None
        else sync_pairings(log.events, spec)
    )
    seq_of = {id(e): seq for e, seq in zip(witness.events, origin)}
    reordered = sync_pairings(witness.events, spec, seq_of=seq_of)
    for seq in origin:
        expect = original.acquires.get(seq, _MISSING)
        if expect is not _MISSING:
            if reordered.acquires.get(seq, _MISSING) != expect:
                problems.append(
                    f"acquire at original seq {seq} re-paired "
                    f"({expect} -> {reordered.acquires.get(seq)})"
                )
        expect = original.statics.get(seq, _MISSING)
        if expect is not _MISSING:
            if reordered.statics.get(seq, _MISSING) != expect:
                problems.append(
                    f"event at original seq {seq} observes a different "
                    f"static-init publish"
                )

    from ..fuzz.sanitizer import TraceSanitizer
    from ..sim.runner import TestExecution

    execution = TestExecution(
        test_name="predicted-race-witness",
        log=witness,
        steps=len(witness),
        error="witness: truncated at the predicted race",
    )
    sanitizer = TraceSanitizer(near=near, window_cap=window_cap)
    for violation in sanitizer.sanitize(execution):
        problems.append(f"sanitizer: {violation.code}: {violation.message}")
    return problems


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "<missing>"


_MISSING = _Missing()


__all__ = [
    "WITNESS_OF",
    "WITNESS_TIME_STEP",
    "build_witness",
    "program_order",
    "validate_witness",
]
