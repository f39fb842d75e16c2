"""Happens-before specifications for the race detector.

A spec tells FastTrack which trace operations induce happens-before
edges.  Releases publish the thread's vector clock to a channel keyed by
the event's address (object id); acquires join it.  Method acquires join
both at ENTER (delegate/begin-style acquires) and at the matching EXIT
(blocking acquires like ``Monitor.Enter`` — the edge lands when the call
returns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, NamedTuple, Set, Tuple

from ..trace.optypes import OpRef, OpType, Role, SyncOp

if TYPE_CHECKING:  # pragma: no cover
    from ..trace.events import TraceEvent


class EventRoles(NamedTuple):
    """The four event-level predicates of a spec, for one static op."""

    acquire: bool
    release: bool
    #: A release into a collective (phase) channel.
    collective: bool
    #: An EXIT publishing a static-initialization channel.
    publish: bool


@dataclass
class HappensBeforeSpec:
    """The synchronization vocabulary a detector variant knows."""

    name: str = "spec"
    #: Ops whose dynamic instances acquire (join their channel).
    acquires: Set[OpRef] = field(default_factory=set)
    #: Ops whose dynamic instances release (publish to their channel).
    releases: Set[OpRef] = field(default_factory=set)
    #: Fields treated as volatile: their reads acquire, writes release.
    volatile_fields: Set[str] = field(default_factory=set)
    #: Method names whose EXIT publishes a channel joined by *any* later
    #: access to the same address (static-initialization semantics).
    static_init_methods: Set[str] = field(default_factory=set)
    #: Method names whose releases are *collective* (phase/barrier
    #: quorums): a waiter on the channel is ordered after **every**
    #: prior release, not just the pairing one, so the sync-preserving
    #: closure accumulates these channels instead of replacing them.
    collective_releases: Set[str] = field(default_factory=set)

    def is_acquire(self, ref: OpRef) -> bool:
        if ref in self.acquires:
            return True
        return (
            ref.optype is OpType.READ and ref.name in self.volatile_fields
        )

    def is_release(self, ref: OpRef) -> bool:
        if ref in self.releases:
            return True
        return (
            ref.optype is OpType.WRITE and ref.name in self.volatile_fields
        )

    #: Names of acquire methods (to join again at their EXIT).
    def acquire_method_names(self) -> Set[str]:
        return {
            ref.name
            for ref in self.acquires
            if ref.optype is OpType.ENTER
        }

    # -- event-level classification ------------------------------------------
    #
    # The dynamic-instance view FastTrack and the predictive detector
    # share: a trace event acquires either because its static op is an
    # acquire (delegate/begin-style and volatile reads) or because it is
    # the EXIT of an acquire method (blocking acquires complete — and
    # take their happens-before edge — at the call's return).

    def is_acquire_event(self, event: "TraceEvent") -> bool:
        if self.is_acquire(event.ref):
            return True
        return (
            event.optype is OpType.EXIT
            and OpRef(event.name, OpType.ENTER) in self.acquires
        )

    def is_release_event(self, event: "TraceEvent") -> bool:
        return self.is_release(event.ref)

    def is_collective_release_event(self, event: "TraceEvent") -> bool:
        """Whether this release publishes into a collective (phase)
        channel — one a waiter acquires in its entirety."""
        return (
            event.optype is OpType.EXIT
            and event.name in self.collective_releases
            and self.is_release_event(event)
        )

    def is_static_publish_event(self, event: "TraceEvent") -> bool:
        """Whether this EXIT publishes a static-initialization channel."""
        return (
            event.optype is OpType.EXIT
            and event.name in self.static_init_methods
        )

    def event_roles(self) -> Callable[["TraceEvent"], EventRoles]:
        """A classifier for one pass over a trace.

        Every predicate above depends only on the event's static op
        ``(name, optype)`` and the spec's sets, so the classifier
        evaluates them once per static op and serves repeats from a
        memo.  The memo lives as long as the returned function: call
        this once per pass, so a spec mutated between passes is never
        served stale roles.
        """
        memo: Dict[Tuple[str, OpType], EventRoles] = {}

        def roles(event: "TraceEvent") -> EventRoles:
            key = (event.name, event.optype)
            found = memo.get(key)
            if found is None:
                found = memo[key] = EventRoles(
                    self.is_acquire_event(event),
                    self.is_release_event(event),
                    self.is_collective_release_event(event),
                    self.is_static_publish_event(event),
                )
            return found

        return roles

    @staticmethod
    def from_syncs(name: str, syncs: Iterable[SyncOp]) -> "HappensBeforeSpec":
        """Build a spec from (op, role) pairs — e.g. SherLock's inference."""
        spec = HappensBeforeSpec(name=name)
        for sync in syncs:
            if sync.role is Role.ACQUIRE:
                spec.acquires.add(sync.op)
            else:
                spec.releases.add(sync.op)
        return spec

    def __repr__(self) -> str:
        return (
            f"HappensBeforeSpec({self.name!r}, acquires={len(self.acquires)}, "
            f"releases={len(self.releases)}, "
            f"volatile={len(self.volatile_fields)})"
        )


__all__ = ["EventRoles", "HappensBeforeSpec"]
