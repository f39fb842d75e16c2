"""Sync-preserving predictive race detection over one trace.

Runs the closure engine over every conflicting access pair from the
kernel's conflict groups (:class:`~repro.core.index.ConflictGroups` —
the same bucketing the window extractor uses) and reports a
:class:`PredictedRace` for each pair some sync-preserving correct
reordering co-enables.  Every report carries a concrete witness
reordering; a clock-level prediction that cannot be witnessed (the
pair's ideal has an unsatisfiable channel constraint) is counted but
**not** reported — reported races are witness-backed by construction.

The detector is parameterized by a
:class:`~repro.racedet.spec.HappensBeforeSpec`, so it runs against the
manual annotations (Manual_pr) or SherLock's inferred sync set
(SherLock_pr), mirroring the Manual_dr / SherLock_dr FastTrack naming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.index import ConflictGroups
from ..racedet.fasttrack import RaceReport
from ..racedet.spec import HappensBeforeSpec
from ..trace.log import TraceLog
from .closure import SyncPairings, SyncPreservingClosure, sync_pairings
from .witness import build_witness, program_order, validate_witness


@dataclass(frozen=True)
class PredictedRace(RaceReport):
    """A race exposed by a sync-preserving reordering of the trace.

    Extends :class:`~repro.racedet.fasttrack.RaceReport` with the exact
    access pair (``a_seq``/``b_seq`` in the source trace) and the
    witness reordering that co-enables it.  ``first_thread`` is the
    earlier access's *actual* thread (FastTrack reports the prior
    writer's thread or ``-1``; the predictive detector always knows both
    endpoints).
    """

    a_seq: int = -1
    b_seq: int = -1
    #: Timestamp of the earlier access in the *source* trace.
    first_timestamp: float = 0.0
    #: Unit test whose run produced the trace (filled by the harness).
    test_name: str = ""
    #: The reordered trace ending with the racy pair co-enabled.
    witness: Optional[TraceLog] = field(
        default=None, compare=False, repr=False
    )
    #: Whether the witness passed ``validate_witness`` (sanitizer +
    #: pairing-identity + permutation checks).
    validated: bool = False

    def to_dict(self) -> dict:
        return {
            "field": self.field_name,
            "address": self.address,
            "first_access": self.first_access,
            "second_access": self.second_access,
            "first_thread": self.first_thread,
            "second_thread": self.second_thread,
            "timestamp": self.timestamp,
            "first_timestamp": self.first_timestamp,
            "a_seq": self.a_seq,
            "b_seq": self.b_seq,
            "test": self.test_name,
            "validated": self.validated,
            "witness_events": len(self.witness) if self.witness else 0,
        }


@dataclass
class PredictionAnalysis:
    """All predicted races for one test run, with pair-level counters."""

    spec_name: str
    races: List[PredictedRace] = field(default_factory=list)
    #: Conflicting cross-thread pairs examined.
    pairs_checked: int = 0
    #: Pairs the closure's clock test predicted (pre-dedup, pre-witness).
    pairs_predicted: int = 0
    #: Clock-predicted pairs with no constructible witness (channel
    #: constraints unsatisfiable) — counted, never reported.
    unwitnessed_pairs: int = 0
    #: Witnesses that failed post-hoc validation.  Always 0 unless the
    #: builder has a bug; the differential suite asserts on it.
    invalid_witnesses: int = 0

    def keys(self) -> Set[Tuple[str, int]]:
        """``(field, address)`` keys, comparable to FastTrack reports."""
        return {race.key() for race in self.races}


class PredictiveDetector:
    """Predictive detector for one happens-before spec.

    ``validate=True`` (the default) re-checks every witness through
    :func:`~repro.predict.witness.validate_witness` — including a full
    :class:`~repro.fuzz.sanitizer.TraceSanitizer` pass with the given
    ``near``/``window_cap`` — and silently drops any race whose witness
    fails, so reported races are always sanitizer-clean.
    """

    def __init__(
        self,
        spec: HappensBeforeSpec,
        near: float = 1.0,
        window_cap: int = 15,
        validate: bool = True,
    ) -> None:
        self.spec = spec
        self.near = near
        self.window_cap = window_cap
        self.validate = validate

    def analyze(self, log: TraceLog) -> PredictionAnalysis:
        analysis = PredictionAnalysis(spec_name=self.spec.name)
        closure = SyncPreservingClosure(log, self.spec)
        groups = ConflictGroups(log.memory_events())
        # The validator's view of the source log (its sync pairings and
        # per-thread order), derived on first use and shared by every
        # witness of this log.  It is computed apart from the closure so
        # validation shares no state with construction.
        source: Optional[SyncPairings] = None
        source_order: Optional[Dict[int, List[int]]] = None
        #: Dedup key: one representative per (field, address, access
        #: kinds, thread pair) — the earliest pair that witnesses wins.
        reported: Set[Tuple[str, int, str, str, int, int]] = set()
        for key, group in groups.groups():
            _, address, name = key
            for j in range(len(group)):
                for i in range(j):
                    if group.threads[i] == group.threads[j]:
                        continue
                    if not (group.writes[i] or group.writes[j]):
                        continue
                    analysis.pairs_checked += 1
                    dedup = (
                        name,
                        address,
                        "write" if group.writes[i] else "read",
                        "write" if group.writes[j] else "read",
                        group.threads[i],
                        group.threads[j],
                    )
                    if dedup in reported:
                        continue
                    a_seq = group.events[i].seq
                    b_seq = group.events[j].seq
                    ideal = closure.predicts(a_seq, b_seq)
                    if ideal is None:
                        continue
                    analysis.pairs_predicted += 1
                    witness = build_witness(
                        log, self.spec, closure, a_seq, b_seq, ideal
                    )
                    if witness is None:
                        analysis.unwitnessed_pairs += 1
                        continue
                    if self.validate:
                        if source is None:
                            source = sync_pairings(log.events, self.spec)
                            source_order = program_order(log.events)
                        problems = validate_witness(
                            log, witness, self.spec, a_seq, b_seq,
                            near=self.near, window_cap=self.window_cap,
                            source_pairings=source,
                            source_order=source_order,
                        )
                        if problems:
                            analysis.invalid_witnesses += 1
                            continue
                    reported.add(dedup)
                    analysis.races.append(
                        PredictedRace(
                            field_name=name,
                            address=address,
                            first_access=dedup[2],
                            second_access=dedup[3],
                            first_thread=group.threads[i],
                            second_thread=group.threads[j],
                            timestamp=group.times[j],
                            a_seq=a_seq,
                            b_seq=b_seq,
                            first_timestamp=group.times[i],
                            witness=witness,
                            validated=self.validate,
                        )
                    )
        return analysis


def analyze_run_predictive(
    log: TraceLog, spec: HappensBeforeSpec, **kwargs: object
) -> PredictionAnalysis:
    """Run the predictive detector over one test run's trace."""
    return PredictiveDetector(spec, **kwargs).analyze(log)


__all__ = [
    "PredictedRace",
    "PredictionAnalysis",
    "PredictiveDetector",
    "analyze_run_predictive",
]
