"""Pluggable scheduling policies for the kernel's choice points.

The kernel asks its :class:`SchedulePolicy` which runnable thread to step
next.  The default :class:`RandomPolicy` reproduces the kernel's historic
behavior bit-for-bit (it consumes the kernel RNG only when more than one
thread is runnable), so seed-0 golden traces are policy-agnostic.  The
:class:`PCTPolicy` is a PCT-style priority scheduler (Burckhardt et al.,
"A Randomized Scheduler with Probabilistic Guarantees of Finding Bugs"):
each thread gets a random priority, the highest-priority runnable thread
always runs, and at random change points the running thread's priority is
demoted — surfacing interleavings a uniform-random walk rarely visits.

:class:`DirectedPolicy` is the schedule-*search* variant: PCT priorities
whose change points are not random but pinned to a set of static target
locations (the fields of predicted-but-unwitnessed races from
:mod:`repro.predict`).  The first time a thread is about to touch a
target field the policy *defers* the access — the kernel parks the
syscall, the thread's priority drops below every other thread, and the
rest of the program overtakes it — forcing exactly the reordering the
predictive detector claims exposes the race.

Policies are addressed by *spec strings* (``"random"``, ``"pct"``,
``"pct:0.05"``, ``"directed:7|Cls::field[read/write]"``) so they can
cross process-pool boundaries and participate in trace-cache keys as
plain data.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..trace.optypes import OpType
from .thread import SimThread

#: Default probability per scheduling step that PCT demotes the chosen
#: thread's priority (the online analogue of PCT's d-1 change points).
DEFAULT_PCT_CHANGE_PROB = 0.02


class SchedulePolicy:
    """Decides which runnable thread the kernel steps next.

    ``reset(rng)`` is called once per kernel with the kernel's seeded RNG;
    every random decision must come from that RNG so a (seed, policy spec)
    pair fully determines the schedule.
    """

    #: Canonical spec string (used by cache keys and reports).
    spec: str = ""

    def reset(self, rng: random.Random) -> None:
        self.rng = rng

    def choose(
        self, runnable: Sequence[SimThread], step: int
    ) -> SimThread:  # pragma: no cover - interface
        """Pick the thread to step from ``runnable`` (creation order,
        never empty).  The sequence is the kernel's own live list: read
        it, but neither modify it nor keep it past the call."""
        raise NotImplementedError

    def defer(self, thread: SimThread, optype: OpType, name: str) -> bool:
        """Ask whether a traced operation should be postponed.

        Called by the kernel immediately before a traced operation
        executes; returning True parks the syscall on the thread (it
        re-dispatches untouched at the thread's next step) so the policy
        can let other threads overtake at that exact point.  The default
        never defers and consumes no randomness, so pre-existing
        policies and golden traces are unaffected.
        """
        return False


class RandomPolicy(SchedulePolicy):
    """Uniform-random scheduling — the kernel's historic behavior.

    Consumes one RNG draw only when there is a real choice, exactly like
    the pre-policy kernel, so default-config traces are unchanged.
    """

    spec = "random"

    def choose(self, runnable: Sequence[SimThread], step: int) -> SimThread:
        if len(runnable) == 1:
            return runnable[0]
        return self.rng.choice(runnable)


class PCTPolicy(SchedulePolicy):
    """Priority-based scheduling with random priority change points."""

    def __init__(self, change_prob: float = DEFAULT_PCT_CHANGE_PROB) -> None:
        if not (0.0 <= change_prob <= 1.0):
            raise ValueError("pct change probability must be in [0, 1]")
        self.change_prob = change_prob
        self.spec = (
            "pct"
            if change_prob == DEFAULT_PCT_CHANGE_PROB
            else f"pct:{change_prob:g}"
        )
        self._priorities: Dict[int, float] = {}

    def reset(self, rng: random.Random) -> None:
        super().reset(rng)
        self._priorities = {}

    def choose(self, runnable: Sequence[SimThread], step: int) -> SimThread:
        for thread in runnable:
            if thread.tid not in self._priorities:
                self._priorities[thread.tid] = self.rng.random()
        # Highest priority wins; tid breaks ties deterministically.
        thread = max(
            runnable, key=lambda t: (self._priorities[t.tid], -t.tid)
        )
        if len(runnable) > 1 and self.rng.random() < self.change_prob:
            # Change point: demote below every current priority so a
            # lower-priority thread overtakes at the next choice.
            floor = min(self._priorities[t.tid] for t in runnable)
            self._priorities[thread.tid] = floor * self.rng.random()
        return thread


#: Separator between the seed and the targets (and between targets) in a
#: directed spec.  ``|`` never appears in qualified field names, which
#: freely contain ``:``, ``.``, ``/``, ``[`` and ``]``.
_DIRECTED_SEP = "|"

#: A static schedule-search target: a fully qualified field name plus the
#: access kinds allowed to trigger a deferral (empty = any memory access).
TargetSite = Tuple[str, "frozenset[str]"]


def parse_target(target: str) -> TargetSite:
    """Parse one target spec: ``Cls::field`` or ``Cls::field[read/write]``.

    The bracketed form is exactly what the predicted-unwitnessed oracle
    and :meth:`CampaignReport.schedule_targets` emit, so campaign output
    feeds straight back in.
    """
    target = target.strip()
    if not target:
        raise ValueError("empty directed target")
    if target.endswith("]") and "[" in target:
        name, _, kinds_part = target[:-1].rpartition("[")
        kinds = frozenset(
            k.strip() for k in kinds_part.split("/") if k.strip()
        )
        bad = kinds - {"read", "write"}
        if bad:
            raise ValueError(
                f"bad access kind(s) {sorted(bad)} in target {target!r}"
            )
        return (name, kinds)
    return (target, frozenset())


def format_target(site: TargetSite) -> str:
    name, kinds = site
    if not kinds:
        return name
    return f"{name}[{'/'.join(sorted(kinds))}]"


class DirectedPolicy(SchedulePolicy):
    """PCT priorities with change points pinned to target locations.

    Where :class:`PCTPolicy` demotes the running thread at *random*
    steps, the directed policy demotes it exactly when it is about to
    access one of the target fields — and additionally defers that
    access, so every other thread overtakes the toucher at the racy
    site.  Each ``(thread, field)`` pair is deferred at most once per
    run: the re-dispatched access then proceeds, now reordered against
    the rest of the program.

    All randomness comes from a private RNG seeded by the spec's
    ``<seed>`` component, never from the kernel RNG — so the kernel's
    own draw sequence (op-cost jitter, finalizer lag) is byte-identical
    to an undirected run of the same kernel seed, and distinct directed
    seeds explore distinct priority orders over identical programs.
    """

    def __init__(
        self,
        seed: int = 0,
        targets: Iterable[str] = (),
        change_prob: float = DEFAULT_PCT_CHANGE_PROB,
    ) -> None:
        if not (0.0 <= change_prob <= 1.0):
            raise ValueError("directed change probability must be in [0, 1]")
        self.seed = int(seed)
        self.change_prob = change_prob
        sites = sorted({parse_target(t) for t in targets})
        #: field name → access kinds that trigger a deferral there.
        self._sites: Dict[str, Set[str]] = {}
        for name, kinds in sites:
            self._sites.setdefault(name, set()).update(kinds)
        self.targets: Tuple[str, ...] = tuple(
            format_target((name, frozenset(kinds)))
            for name, kinds in sorted(self._sites.items())
        )
        parts = [str(self.seed)]
        if change_prob != DEFAULT_PCT_CHANGE_PROB:
            parts[0] = f"{self.seed}@{change_prob:g}"
        parts.extend(self.targets)
        self.spec = "directed:" + _DIRECTED_SEP.join(parts)
        self._priorities: Dict[int, float] = {}
        self._deferred: Set[Tuple[int, str]] = set()
        self._floor = 0.0
        self._rng = random.Random(self.seed)

    @classmethod
    def from_arg(cls, arg: Optional[str]) -> "DirectedPolicy":
        """Build from the ``:<seed>[@prob]|<target>|...`` spec suffix."""
        if arg is None:
            return cls()
        head, *targets = arg.split(_DIRECTED_SEP)
        head = head.strip() or "0"
        seed_part, _, prob_part = head.partition("@")
        seed = int(seed_part)
        prob = float(prob_part) if prob_part else DEFAULT_PCT_CHANGE_PROB
        return cls(seed=seed, targets=targets, change_prob=prob)

    def reset(self, rng: random.Random) -> None:
        super().reset(rng)
        self._priorities = {}
        self._deferred = set()
        self._floor = 0.0
        self._rng = random.Random(self.seed)

    def _prio(self, thread: SimThread) -> float:
        if thread.tid not in self._priorities:
            self._priorities[thread.tid] = self._rng.random()
        return self._priorities[thread.tid]

    def _demote(self, thread: SimThread) -> None:
        """Push a thread strictly below every priority handed out so far."""
        self._floor -= 1.0
        self._priorities[thread.tid] = self._floor + 0.5 * self._rng.random()

    def choose(self, runnable: Sequence[SimThread], step: int) -> SimThread:
        for thread in runnable:
            self._prio(thread)
        thread = max(
            runnable, key=lambda t: (self._priorities[t.tid], -t.tid)
        )
        if len(runnable) > 1 and self._rng.random() < self.change_prob:
            self._demote(thread)
        return thread

    def defer(self, thread: SimThread, optype: OpType, name: str) -> bool:
        if not optype.is_memory:
            return False
        kinds = self._sites.get(name)
        if kinds is None:
            return False
        if kinds and optype.value not in kinds:
            return False
        key = (thread.tid, name)
        if key in self._deferred:
            return False
        self._deferred.add(key)
        self._prio(thread)
        self._demote(thread)
        return True


def directed_spec(
    seed: int,
    targets: Iterable[str],
    change_prob: float = DEFAULT_PCT_CHANGE_PROB,
) -> str:
    """Canonical ``directed:...`` spec string for a seed + target set."""
    return DirectedPolicy(
        seed=seed, targets=targets, change_prob=change_prob
    ).spec


#: Spec-name → factory taking the optional ``:arg`` suffix.
_POLICIES = {
    "random": lambda arg: RandomPolicy(),
    "pct": lambda arg: PCTPolicy(
        DEFAULT_PCT_CHANGE_PROB if arg is None else float(arg)
    ),
    "directed": lambda arg: DirectedPolicy.from_arg(arg),
}


def policy_names() -> List[str]:
    return sorted(_POLICIES)


def build_policy(spec: "str | SchedulePolicy") -> SchedulePolicy:
    """Instantiate a policy from its spec string (``"pct:0.05"`` style).

    A ready policy instance passes through unchanged, letting tests plug
    in custom policies without registering a spec.
    """
    if isinstance(spec, SchedulePolicy):
        return spec
    name, _, arg = spec.partition(":")
    factory = _POLICIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown schedule policy {spec!r}; known: {policy_names()}"
        )
    try:
        return factory(arg or None)
    except ValueError as exc:
        raise ValueError(f"bad schedule policy spec {spec!r}: {exc}") from exc


__all__ = [
    "DEFAULT_PCT_CHANGE_PROB",
    "DirectedPolicy",
    "PCTPolicy",
    "RandomPolicy",
    "SchedulePolicy",
    "build_policy",
    "directed_spec",
    "format_target",
    "parse_target",
    "policy_names",
]
