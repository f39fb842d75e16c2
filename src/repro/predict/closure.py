"""Sync-preserving closure over one trace.

The model follows "Optimal Prediction of Synchronization-Preserving
Races" (Mathur, Pavlogiannis, Viswanathan, POPL 2021), instantiated on
our :class:`~repro.racedet.spec.HappensBeforeSpec` vocabulary: a
*correct reordering* of a trace is **sync-preserving** when every
acquire pairs with the *same* release as in the original trace (and
every event on a statically-initialized address sees the same
static-init publish).  Two conflicting accesses are a predicted race
when some sync-preserving correct reordering ends with both of them
co-enabled.

The key relation is the **sync-preserving happens-before** (SPHB)
partial order: the transitive closure of

* program order per thread,
* ``pair(a) → a`` for every acquire ``a`` (only the *pairing* release —
  the last release on the acquire's channel — not every earlier release
  on the channel, which is where prediction power over the observed-order
  FastTrack relation comes from: FastTrack's channels accumulate, so an
  acquire is ordered after *all* prior releases on its address), and
* ``pub(e) → e`` for every event ``e`` on an address with a prior
  static-initialization publish.

SPHB is computed with vector clocks indexed by per-thread event counts
(``tick``): at a release the channel is *replaced* with the releasing
event's clock; at an acquire the thread joins the channel.  Releases the
spec marks *collective* (``collective_releases`` — phaser/barrier phase
quorums) accumulate their channel instead: a phase's waiter is ordered
after **all** of the phase's arrivals, so reorderings that move an
arrival past its phase's waits are never sync-preserving.  Because
every SPHB edge points forward in trace order, SPHB is a suborder of the
trace order and of the FastTrack happens-before relation for the same
spec.

The closure (the *trace ideal* of a conflicting pair) is then a plain
clock join: the set of events that must execute before the pair can be
co-enabled is a per-thread prefix vector, obtained by joining the clocks
of both events' program-order predecessors and their own pairing
releases/publishes.  The pair is predictable iff that merged clock
includes neither event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..racedet.spec import HappensBeforeSpec
from ..trace.events import TraceEvent
from ..trace.log import TraceLog

#: A per-thread prefix vector: thread id -> number of that thread's
#: first events included.  The ideal of a predicted pair always has this
#: shape because SPHB contains program order.
PrefixVector = Dict[int, int]


@dataclass(frozen=True)
class SyncPairings:
    """Which release/publish every constrained event observed.

    Both maps are keyed by event ``seq``; values are the ``seq`` of the
    observed release / static publish (``None`` when the acquire ran
    before any release on its channel).  ``sync_pairings`` recomputes
    these maps for arbitrary event sequences, so the witness validator
    can require them to be *identical* between the source trace and a
    reordering.
    """

    #: acquire seq -> pairing release seq (or None).
    acquires: Dict[int, Optional[int]]
    #: event seq -> last static-init publish seq on its address (or None
    #: when the address has publishes but none preceded the event).
    statics: Dict[int, Optional[int]]


def sync_pairings(
    events: List[TraceEvent],
    spec: HappensBeforeSpec,
    seq_of: Optional[Dict[int, int]] = None,
) -> SyncPairings:
    """Pairing maps of an event sequence under ``spec``.

    ``seq_of`` maps ``id(event) -> identity`` when the events carry
    foreign ``seq`` stamps (witness logs re-stamp ``seq``); by default an
    event's own ``seq`` is its identity.  Events on an address that ever
    carries a static publish are all recorded in ``statics`` (with
    ``None`` before the first publish) so a reordering cannot move an
    access from after the publish to before it unnoticed.
    """
    ident = (
        (lambda e: seq_of[id(e)]) if seq_of is not None else (lambda e: e.seq)
    )
    roles = spec.event_roles()
    acquires: Dict[int, Optional[int]] = {}
    statics: Dict[int, Optional[int]] = {}
    last_release: Dict[int, int] = {}
    last_publish: Dict[int, int] = {}
    static_addrs = {e.address for e in events if roles(e).publish}
    for e in events:
        acquire, release, _, publish = roles(e)
        if acquire:
            acquires[ident(e)] = last_release.get(e.address)
        if e.address in static_addrs:
            statics[ident(e)] = last_publish.get(e.address)
        if release:
            last_release[e.address] = ident(e)
        if publish:
            last_publish[e.address] = ident(e)
    return SyncPairings(acquires=acquires, statics=statics)


class SyncPreservingClosure:
    """SPHB clocks, pairings, and pair ideals for one trace.

    Requires a log whose events are ``seq``-stamped positionally (the
    kernel's :meth:`~repro.trace.log.TraceLog.append` guarantees this);
    hand-built logs that bypassed ``append`` are rejected.
    """

    def __init__(self, log: TraceLog, spec: HappensBeforeSpec) -> None:
        if any(e.seq != i for i, e in enumerate(log.events)):
            raise ValueError(
                "SyncPreservingClosure needs a positionally seq-stamped "
                "log (build it through TraceLog.append)"
            )
        self.log = log
        self.spec = spec
        events = log.events
        n = len(events)
        #: Per-event thread-local index (0-based position within thread).
        self.ticks: List[int] = [0] * n
        #: Per-event SPHB vector clock: tid -> ticks seen (inclusive of
        #: the event itself).
        self.clocks: List[PrefixVector] = [dict() for _ in range(n)]
        #: Per-thread event seqs in program order.
        self.thread_events: Dict[int, List[int]] = {}
        #: Per-event spec roles the witness builder reads back.
        self.releases: List[bool] = [False] * n
        self.publishes: List[bool] = [False] * n
        self.pairings = sync_pairings(events, spec)
        roles = spec.event_roles()

        vcs: Dict[int, PrefixVector] = {}
        # Channels hold the *pairing* release's clock: replaced at each
        # release, never accumulated (the sync-preserving weakening).
        channels: Dict[int, PrefixVector] = {}
        static_channels: Dict[int, PrefixVector] = {}
        for e in events:
            acquire, release, collective, publish = roles(e)
            self.releases[e.seq] = release
            self.publishes[e.seq] = publish
            tid = e.thread_id
            vc = vcs.setdefault(tid, {})
            if acquire:
                channel = channels.get(e.address)
                if channel is not None:
                    _join(vc, channel)
            static = static_channels.get(e.address)
            if static is not None:
                _join(vc, static)
            order = self.thread_events.setdefault(tid, [])
            self.ticks[e.seq] = len(order)
            order.append(e.seq)
            vc[tid] = len(order)
            self.clocks[e.seq] = dict(vc)
            if release:
                if collective:
                    # Collective (phase) channels accumulate: a phase's
                    # waiter is ordered after every arrival, so no
                    # sync-preserving reordering may move an arrival
                    # past its phase's waits.
                    _join(channels.setdefault(e.address, {}), vc)
                else:
                    channels[e.address] = dict(vc)
            if publish:
                static_channels[e.address] = dict(vc)

    # -- order queries -------------------------------------------------------

    def ordered(self, first_seq: int, second_seq: int) -> bool:
        """``first ≤SPHB second`` (reflexive)."""
        first = self.log.events[first_seq]
        return (
            self.clocks[second_seq].get(first.thread_id, 0)
            > self.ticks[first_seq]
        )

    def po_predecessor(self, seq: int) -> Optional[int]:
        tick = self.ticks[seq]
        if tick == 0:
            return None
        return self.thread_events[self.log.events[seq].thread_id][tick - 1]

    # -- pair ideals ---------------------------------------------------------

    def ideal(self, a_seq: int, b_seq: int) -> PrefixVector:
        """The SPHB down-closure both events depend on, as a per-thread
        prefix vector: every program-order predecessor of either event,
        their own pairing releases and static publishes, and everything
        SPHB-before any of those."""
        merged: PrefixVector = {}
        for seq in (a_seq, b_seq):
            pred = self.po_predecessor(seq)
            if pred is not None:
                _join(merged, self.clocks[pred])
            for pairing in (
                self.pairings.acquires.get(seq),
                self.pairings.statics.get(seq),
            ):
                if pairing is not None:
                    _join(merged, self.clocks[pairing])
        return merged

    def predicts(
        self, a_seq: int, b_seq: int
    ) -> Optional[PrefixVector]:
        """The pair's ideal when some sync-preserving reordering
        co-enables both events, else ``None``.

        The pair is predictable exactly when the ideal contains neither
        event: an ideal entry at or past an event's own tick means the
        event's thread must run *through* it to satisfy the other
        event's program order or sync pairings — the two can then never
        be simultaneously enabled.
        """
        ideal = self.ideal(a_seq, b_seq)
        a = self.log.events[a_seq]
        b = self.log.events[b_seq]
        if ideal.get(a.thread_id, 0) > self.ticks[a_seq]:
            return None
        if ideal.get(b.thread_id, 0) > self.ticks[b_seq]:
            return None
        return ideal

    def ideal_events(self, ideal: PrefixVector) -> List[int]:
        """The ideal's event seqs in original trace order."""
        out = [
            seq
            for tid, count in ideal.items()
            for seq in self.thread_events[tid][:count]
        ]
        out.sort()
        return out


def _join(target: PrefixVector, other: PrefixVector) -> None:
    for tid, tick in other.items():
        if tick > target.get(tid, 0):
            target[tid] = tick


__all__ = [
    "PrefixVector",
    "SyncPairings",
    "SyncPreservingClosure",
    "sync_pairings",
]
