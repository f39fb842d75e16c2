"""Per-phase timings and counters, recorded where the work happens.

Each layer reports its own work at the point where it is done:
``count("lp_phase1_iterations", n)`` adds to a counter and
``with timed("encode_s"):`` adds a phase's wall-clock seconds.
:meth:`~repro.core.pipeline.Sherlock.arun` opens one :func:`recording`
per round, and the :class:`RunMetrics` that recording yields *is* the
round's :attr:`~repro.core.pipeline.RoundResult.metrics`; aggregates
over a whole run are exposed as
:attr:`~repro.core.pipeline.SherlockReport.metrics` and printed by
``python -m repro ... --stats``.

Counter names are the :class:`RunMetrics` field names, and each field
declares once how it aggregates (summed unless its metadata says
``max``).  :func:`count` outside any recording is a no-op, so direct
``repro.lp.solve()`` callers pay nothing and see nothing.  The recorder
lives in a ``contextvars.ContextVar``: a nested recording shadows the
outer one until it exits, and asyncio tasks spawned inside a recording
report into it, as do functions run through ``asyncio.to_thread``
(which copies the context).  :func:`count` is a plain read-modify-write,
so only one thread records into a recording at a time: the engines count
on their dispatcher side (the thread running ``execute_round``, while
the event loop awaits it), and job bodies running in worker processes
never call it.

Metrics are observability data only: they are intentionally excluded
from :func:`repro.core.serialize.report_to_dict`, so serialized reports
stay byte-identical across serial, parallel, and cached runs.

This module imports only the standard library so that every layer,
:mod:`repro.lp` included, can record without an import cycle.
"""

from __future__ import annotations

import operator
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Optional


def _peak(default: int = 0):
    """A level-valued field: aggregates by keeping the largest value."""
    return field(default=default, metadata={"aggregate": max})


@dataclass
class RunMetrics:
    """Timings and counters for one round (or an aggregate over rounds)."""

    #: Wall-clock seconds spent executing the app's tests (or loading the
    #: round's traces from the cache).
    observe_s: float = 0.0
    #: Seconds spent extracting windows and ingesting into the store.
    extract_s: float = 0.0
    #: Seconds spent encoding the LP (building/patching the model).
    encode_s: float = 0.0
    #: Seconds spent solving the LP (lowering + backend).
    solve_s: float = 0.0
    #: Seconds spent building the next round's delay plan.
    perturb_s: float = 0.0
    #: Rounds whose traces were served from the trace cache.
    cache_hits: int = 0
    #: Rounds whose traces had to be executed.
    cache_misses: int = 0
    #: Unit-test executions represented (executed or replayed from cache).
    tests_executed: int = 0
    #: Trace events observed across those executions.
    events_observed: int = 0
    #: LP size of the (final, when aggregated) solve.
    lp_variables: int = _peak()
    lp_constraints: int = _peak()
    #: Simplex pivots / HiGHS iterations of the round's solve.
    lp_pivots: int = 0
    #: Basis LU factorizations of the revised simplex (total, and the
    #: subset that were mid-solve refactorizations — eta file full or a
    #: numerically unsafe update pivot).  Zero for backends without a
    #: factorized basis.
    lp_factorizations: int = 0
    lp_refactorizations: int = 0
    #: Cold-solve phase breakdown of the revised simplex: seconds spent
    #: LU-factorizing the basis, in ftran/btran triangular solves, and
    #: in pricing, plus the packed eta-file length (entries appended).
    #: Zero for other backends.  Lets a solver regression be attributed
    #: to a phase without re-profiling.
    lp_factorize_s: float = 0.0
    lp_ftran_btran_s: float = 0.0
    lp_pricing_s: float = 0.0
    lp_eta_len: int = 0
    #: Presolve counters (zero below the 4096-column presolve gate,
    #: where presolve is the identity): seconds spent reducing and
    #: rows/columns the reductions removed.  Then the revised simplex's
    #: primal phase-1 iterations, and how many rounds did zero phase-1
    #: work (so a 3-round run reports up to 3).
    lp_presolve_s: float = 0.0
    lp_presolve_rows: int = 0
    lp_presolve_cols: int = 0
    lp_phase1_iterations: int = 0
    lp_phase1_skipped: int = 0
    #: Variables/constraints the encoder actually appended this round —
    #: equals the full LP size on a rebuild, and only the round's delta
    #: on the incremental path.
    lp_delta_variables: int = 0
    lp_delta_constraints: int = 0
    #: Directed schedule-search counters (``repro convert``): targets
    #: attempted, targets converted into observed FastTrack races,
    #: targets flagged as candidate false predictions, and directed
    #: schedules executed.  Zero outside conversion passes.
    convert_targets: int = 0
    convert_converted: int = 0
    convert_flagged: int = 0
    convert_runs: int = 0
    #: Worker-process count of the runtime that produced the traces.
    workers: int = _peak(1)
    #: Most engine jobs in flight at once.  Zero on cache hits.
    engine_concurrency_hwm: int = _peak()

    @property
    def total_s(self) -> float:
        """Total wall-clock seconds across all phases."""
        return (
            self.observe_s
            + self.extract_s
            + self.encode_s
            + self.solve_s
            + self.perturb_s
        )

    def merge(self, other: "RunMetrics") -> None:
        """Fold another round's metrics into this aggregate (in place),
        each field by its declared aggregation."""
        for name, combine in _AGGREGATE.items():
            setattr(
                self, name, combine(getattr(self, name), getattr(other, name))
            )

    @classmethod
    def aggregate(cls, rounds: Iterable["RunMetrics"]) -> "RunMetrics":
        """Sum a sequence of per-round metrics into one aggregate."""
        total = cls()
        for metrics in rounds:
            if metrics is not None:
                total.merge(metrics)
        return total

    def describe(self) -> str:
        """Multi-line human-readable summary (used by ``--stats``)."""
        return "\n".join(
            [
                f"phases: observe {self.observe_s:.3f}s, "
                f"extract {self.extract_s:.3f}s, "
                f"encode {self.encode_s:.3f}s, "
                f"solve {self.solve_s:.3f}s, "
                f"perturb {self.perturb_s:.3f}s "
                f"(total {self.total_s:.3f}s)",
                f"cache: {self.cache_hits} hits, "
                f"{self.cache_misses} misses",
                f"executions: {self.tests_executed} tests, "
                f"{self.events_observed} events, "
                f"workers={self.workers}",
                f"lp: {self.lp_variables} variables, "
                f"{self.lp_constraints} constraints, "
                f"{self.lp_pivots} pivots, "
                f"{self.lp_factorizations} factorizations "
                f"({self.lp_refactorizations} re-) "
                f"(delta {self.lp_delta_variables}v/"
                f"{self.lp_delta_constraints}c)",
                f"lp solve phases: factorize {self.lp_factorize_s:.3f}s, "
                f"ftran/btran {self.lp_ftran_btran_s:.3f}s, "
                f"pricing {self.lp_pricing_s:.3f}s, "
                f"eta length {self.lp_eta_len}",
                f"lp presolve: {self.lp_presolve_s:.3f}s, "
                f"{self.lp_presolve_rows} rows / "
                f"{self.lp_presolve_cols} cols eliminated; "
                f"simplex: {self.lp_phase1_iterations} phase-1 iterations, "
                f"phase-1 skipped in {self.lp_phase1_skipped} round(s)",
                f"engine: concurrency hwm {self.engine_concurrency_hwm}",
                f"convert: {self.convert_targets} targets, "
                f"{self.convert_converted} converted, "
                f"{self.convert_flagged} flagged, "
                f"{self.convert_runs} directed runs",
            ]
        )

    def as_dict(self) -> dict:
        """Plain-dict view (stable field order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Field name → how two values of it combine (sum unless declared).
_AGGREGATE = {
    f.name: f.metadata.get("aggregate", operator.add)
    for f in fields(RunMetrics)
}

_ACTIVE: ContextVar[Optional[RunMetrics]] = ContextVar(
    "repro_metrics", default=None
)


def count(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` of the active recording (by the
    field's declared aggregation); a no-op outside any recording.

    Raises ``ValueError`` for a name that is not a
    :class:`RunMetrics` field, recording or not.
    """
    combine = _AGGREGATE.get(name)
    if combine is None:
        raise ValueError(f"unknown metric {name!r}")
    metrics = _ACTIVE.get()
    if metrics is not None:
        setattr(metrics, name, combine(getattr(metrics, name), n))


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Count the block's wall-clock seconds into ``name``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        count(name, time.perf_counter() - t0)


@contextmanager
def recording() -> Iterator[RunMetrics]:
    """Collect every :func:`count` made inside the block into a fresh
    :class:`RunMetrics`; the enclosing recording (if any) sees none of
    them and is active again once the block exits."""
    metrics = RunMetrics()
    token = _ACTIVE.set(metrics)
    try:
        yield metrics
    finally:
        _ACTIVE.reset(token)


__all__ = ["RunMetrics", "count", "recording", "timed"]
