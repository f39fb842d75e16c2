"""Observation accumulation across runs (§4.3).

The store keeps every window, occurrence statistic, method-duration sample
and observed-data-race mark from all rounds so far.  After each round the
encoder brings its LP up to date with the whole store — appending the
round's new windows and re-deriving the store-global terms — so the LP
always encodes every observation so far, exactly as the paper describes
("SherLock does not throw away any constraints or objective function
terms obtained from previous runs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..trace.log import TraceLog
from ..trace.optypes import OpRef
from .windows import PairKey, Window


@dataclass
class MethodStats:
    """Duration samples for one method (Acquisition-Time-Varies input)."""

    durations: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.durations.append(value)

    @property
    def count(self) -> int:
        return len(self.durations)

    def coefficient_of_variation(self) -> Optional[float]:
        """stddev / mean, or None when under two samples or zero mean."""
        if len(self.durations) < 2:
            return None
        mean = sum(self.durations) / len(self.durations)
        if mean <= 0:
            return None
        variance = sum((d - mean) ** 2 for d in self.durations) / len(
            self.durations
        )
        return sqrt(variance) / mean


@dataclass
class IngestDelta:
    """What one :meth:`ObservationStore.ingest_run` call added.

    The incremental encoder consumes this to append only the new
    observations; ``new_racy_pairs`` non-empty means previously encoded
    Mostly-Protected terms are now invalid (race removal reaches back
    into earlier rounds) and the encoder must rebuild.
    """

    windows: List[Window] = field(default_factory=list)
    new_racy_pairs: Set[PairKey] = field(default_factory=set)
    events: int = 0


class ObservationStore:
    """All observations SherLock has accumulated so far."""

    def __init__(self) -> None:
        self.windows: List[Window] = []
        self.racy_pairs: Set[PairKey] = set()
        self.method_stats: Dict[str, MethodStats] = {}
        #: Names of ops observed with library=True metadata (Single Role).
        self.library_names: Set[str] = set()
        self.runs_ingested: int = 0
        # Running per-op occurrence totals over *all* windows, per side:
        # ref -> [occurrences, windows], the integer sums a rescan of
        # `windows` would give, kept online so each round's Eq. (4)
        # weights cost O(ops), not O(windows).  One entry per ref keeps
        # ingest at one hashed lookup per side entry.
        self._rel_occ: Dict[OpRef, List[int]] = {}
        self._acq_occ: Dict[OpRef, List[int]] = {}

    # -- ingestion -----------------------------------------------------------

    def ingest_run(self, log: TraceLog, windows: Iterable[Window]) -> IngestDelta:
        """Add one run's windows and trace-derived statistics.

        Returns the delta this run contributed, for incremental encoding.
        """
        delta = IngestDelta()
        rel_occ = self._rel_occ
        acq_occ = self._acq_occ
        for window in windows:
            self.windows.append(window)
            delta.windows.append(window)
            if window.racy and window.pair_key not in self.racy_pairs:
                self.racy_pairs.add(window.pair_key)
                delta.new_racy_pairs.add(window.pair_key)
            for side, totals in (
                (window.release_side, rel_occ),
                (window.acquire_side, acq_occ),
            ):
                for ref, count in side.items():
                    entry = totals.get(ref)
                    if entry is None:
                        totals[ref] = [count, 1]
                    else:
                        entry[0] += count
                        entry[1] += 1
        for name, samples in log.method_durations().items():
            stats = self.method_stats.get(name)
            if stats is None:
                stats = self.method_stats[name] = MethodStats()
            stats.durations.extend(samples)
        for event in log.events:
            if event.meta.get("library"):
                self.library_names.add(event.name)
        delta.events = len(log)
        self.runs_ingested += 1
        return delta

    # -- queries ----------------------------------------------------------------

    def coverage_windows(self, race_removal: bool = True) -> List[Window]:
        """Windows that contribute Mostly-Protected terms: non-racy windows
        of pairs never observed racing (when race removal is on)."""
        out = []
        for window in self.windows:
            if window.racy:
                continue
            if race_removal and window.pair_key in self.racy_pairs:
                continue
            out.append(window)
        return out

    def average_occurrence(self) -> Tuple[Dict[OpRef, float], Dict[OpRef, float]]:
        """Mean dynamic-instance count per window, per op, per side.

        Feeds Eq. (4): an op like a hot logging call or a spin-loop read
        appears many times inside each window it occupies and is penalized.
        Read off the running totals, so O(ops) rather than O(windows).
        """
        rel_avg = {r: total / n for r, (total, n) in self._rel_occ.items()}
        acq_avg = {r: total / n for r, (total, n) in self._acq_occ.items()}
        return rel_avg, acq_avg

    def cv_percentiles(self) -> Dict[str, float]:
        """Percentile rank of each method's duration CV among all methods.

        Only methods with enough samples to have a CV are ranked; a method
        never observed twice carries no evidence of constant acquisition
        time and therefore receives no Eq. (5) penalty (it is absent from
        the returned map).  High variation → high percentile → low penalty.
        """
        cvs = {
            name: stats.coefficient_of_variation()
            for name, stats in self.method_stats.items()
        }
        known = sorted(v for v in cvs.values() if v is not None)
        out: Dict[str, float] = {}
        for name, cv in cvs.items():
            if cv is None or not known:
                continue
            rank = sum(1 for v in known if v <= cv)
            out[name] = rank / len(known)
        return out

    def stats(self) -> Mapping[str, int]:
        return {
            "windows": len(self.windows),
            "racy_pairs": len(self.racy_pairs),
            "methods_timed": len(self.method_stats),
            "library_names": len(self.library_names),
            "runs": self.runs_ingested,
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"ObservationStore(windows={s['windows']}, "
            f"racy_pairs={s['racy_pairs']}, runs={s['runs']})"
        )


__all__ = ["IngestDelta", "MethodStats", "ObservationStore"]
