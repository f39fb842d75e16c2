"""Execution runtime: pluggable engines, trace caching, run metrics.

The runtime layer sits between the SherLock pipeline and the simulator:

* :class:`ExecutionRuntime` — consults a trace cache, then delegates
  round execution to a pluggable engine; one round body
  (``observe_round``), which ``aobserve_round`` runs in a worker thread;
* :class:`Engine` — the synchronous engine interface, with
  :class:`SerialEngine` / :class:`ProcessEngine` implementations chosen
  by an engine spec (``engine=None | "serial" | "process[:N]"``);
* :class:`TraceCache` — content-addressed memoization of observed rounds
  (in-memory LRU + optional on-disk JSON store under ``.repro_cache/``);
* :class:`RunMetrics` — per-phase timings and cache/LP/engine counters
  surfaced on round results and reports (re-exported from
  :mod:`repro.metrics`, where the recorder lives).

All engines and cached runs are guaranteed to serialize byte-identically
to serial cold runs; see DESIGN.md § "Runtime" and § "Engines and the
async bridge".
"""

from ._sync import _run_sync
from .cache import (
    CACHE_FORMAT_VERSION,
    DEFAULT_CACHE_DIR,
    TraceCache,
    freeze_delay_plan,
    round_key,
    thaw_delay_plan,
)
from .engine import ExecutionRuntime, ObserveOutcome
from .engines import (
    Engine,
    ProcessEngine,
    SerialEngine,
    coerce_engine,
    execute_test_payload,
    parse_engine_spec,
)
from ..metrics import RunMetrics

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "Engine",
    "ExecutionRuntime",
    "ObserveOutcome",
    "ProcessEngine",
    "RunMetrics",
    "SerialEngine",
    "TraceCache",
    "_run_sync",
    "coerce_engine",
    "execute_test_payload",
    "freeze_delay_plan",
    "parse_engine_spec",
    "round_key",
    "thaw_delay_plan",
]
