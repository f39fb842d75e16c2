"""repro — a reproduction of SherLock: Unsupervised Synchronization-
Operation Inference (Li, Chen, Lu, Musuvathi, Nath — ASPLOS 2021).

Public API tour:

* :func:`repro.run` — the one-call entry point: resolve an app, run the
  multi-round pipeline (optionally across worker processes and against a
  trace cache), return a :class:`~repro.core.SherlockReport`.
* :mod:`repro.runtime` — the execution runtime: serial or process-pool
  engines, content-addressed trace caching, per-phase :class:`RunMetrics`.
* :mod:`repro.sim` — the deterministic concurrent-program simulator and
  its .NET-style synchronization primitives.
* :mod:`repro.core` — SherLock itself: :class:`~repro.core.Sherlock`
  (Observer → LP Solver → Perturber over rounds) and
  :class:`~repro.core.SherlockConfig`.
* :mod:`repro.apps` — the 8 benchmark applications.
* :mod:`repro.racedet` — the FastTrack race detector (Manual_dr /
  SherLock_dr).
* :mod:`repro.predict` — sync-preserving *predictive* race detection
  (Manual_pr / SherLock_pr) with witness reorderings; one-call entry
  point :func:`repro.predict_races`; directed schedule search
  via :func:`repro.convert_predictions` (``repro convert``).
* :mod:`repro.tsvd` — the TSVD baseline.
* :mod:`repro.analysis` — per-table experiment regenerators.
* :mod:`repro.lp` — the linear-programming substrate.

Quickstart::

    import repro

    report = repro.run("App-2", engine="process:4", cache=True)
    for sync in sorted(report.final.syncs, key=lambda s: s.display()):
        print(sync.display())
    print(report.metrics.describe())   # phase timings, cache hits

or, from async code (each round runs in a worker thread, so the event
loop stays free)::

    report = await repro.arun("App-2", cache=True)

``engine`` picks how unit-test jobs execute ("serial", or "process[:N]"
pool fan-out); ``cache`` memoizes observed rounds under
``.repro_cache/`` (or ``"memory"`` for an LRU-only store).  Neither
changes results: both engines and warm-cache runs serialize
byte-identically.
"""

from . import fuzz
from .api import arun, convert_predictions, predict_races, run
from .apps import all_applications, app_ids, get_application
from .core import (
    InferenceResult,
    Sherlock,
    SherlockConfig,
    SherlockReport,
)
from .racedet import detect_races, manual_spec, sherlock_spec
from .runtime import (
    Engine,
    ExecutionRuntime,
    ProcessEngine,
    RunMetrics,
    SerialEngine,
    TraceCache,
)
from .trace import OpRef, OpType, Role, SyncOp, TraceEvent, TraceLog

__version__ = "2.0.0"

__all__ = [
    "Engine",
    "ExecutionRuntime",
    "ProcessEngine",
    "SerialEngine",
    "InferenceResult",
    "OpRef",
    "OpType",
    "Role",
    "RunMetrics",
    "Sherlock",
    "SherlockConfig",
    "SherlockReport",
    "SyncOp",
    "TraceCache",
    "TraceEvent",
    "TraceLog",
    "all_applications",
    "app_ids",
    "arun",
    "convert_predictions",
    "detect_races",
    "fuzz",
    "get_application",
    "manual_spec",
    "predict_races",
    "run",
    "sherlock_spec",
]
