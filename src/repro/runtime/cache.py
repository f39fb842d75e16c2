"""Content-addressed trace cache.

A round's test executions are fully determined by ``(app_id, seed,
op_cost, max_steps, delay_plan, round_index)``: the kernel is seeded per
test and per round, so re-executing with the same key reproduces the same
traces.  The cache therefore memoizes whole observed rounds under a
digest of that tuple — an in-memory LRU for repeated runs inside one
process (ablation sweeps, figure regenerators) plus an optional on-disk
JSON store under ``.repro_cache/`` that survives across processes
(``python -m repro ... --cache``).

Anything that could change a trace is part of the key; solver-side knobs
(λ, Near, thresholds, hypothesis toggles) deliberately are not, so an
ablation sweep over solver settings reuses one set of traces.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..sim.kernel import DelaySpec
from ..sim.runner import TestExecution
from ..trace.events import DelayInterval, TraceEvent
from ..trace.log import TraceLog
from ..trace.optypes import OpRef, OpType

#: Bump when the serialized execution format or the key recipe changes.
CACHE_FORMAT_VERSION = 2

#: Default location of the on-disk store.
DEFAULT_CACHE_DIR = ".repro_cache"

#: One canonical delay-plan entry:
#: (trigger name, trigger optype, duration, site name, site optype).
FrozenPlanEntry = Tuple[str, str, float, str, str]
FrozenPlan = Tuple[FrozenPlanEntry, ...]

DelayPlan = Mapping[OpRef, Union[DelaySpec, float]]


def freeze_delay_plan(plan: Optional[DelayPlan]) -> FrozenPlan:
    """Canonical, hashable, sorted form of a delay plan."""
    entries: List[FrozenPlanEntry] = []
    for trigger, spec in (plan or {}).items():
        if isinstance(spec, DelaySpec):
            duration, site = spec.duration, spec.site
        else:  # bare-float plans are accepted by the kernel
            duration, site = float(spec), trigger
        entries.append(
            (
                trigger.name,
                trigger.optype.value,
                float(duration),
                site.name,
                site.optype.value,
            )
        )
    return tuple(sorted(entries))


def thaw_delay_plan(frozen: FrozenPlan) -> Dict[OpRef, DelaySpec]:
    """Rebuild a kernel-ready delay plan from its canonical form."""
    plan: Dict[OpRef, DelaySpec] = {}
    for name, optype, duration, site_name, site_optype in frozen:
        trigger = OpRef(name, OpType(optype))
        site = OpRef(site_name, OpType(site_optype))
        plan[trigger] = DelaySpec(duration=duration, site=site)
    return plan


def round_key(
    app_id: str,
    seed: int,
    op_cost: float,
    max_steps: int,
    delay_plan: Optional[DelayPlan],
    round_index: int,
    schedule_policy: str = "random",
) -> str:
    """Content digest of everything that determines one round's traces."""
    payload = json.dumps(
        {
            "version": CACHE_FORMAT_VERSION,
            "app_id": app_id,
            "seed": seed,
            "op_cost": op_cost,
            "max_steps": max_steps,
            "delay_plan": list(freeze_delay_plan(delay_plan)),
            "round_index": round_index,
            "schedule_policy": schedule_policy,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- execution (de)serialization ---------------------------------------------


def execution_to_dict(execution: TestExecution) -> dict:
    log = execution.log
    return {
        "test": execution.test_name,
        "steps": execution.steps,
        "error": execution.error,
        "log": {
            "run_id": log.run_id,
            "delays": [
                {
                    "tid": d.thread_id,
                    "start": d.start,
                    "end": d.end,
                    "name": d.site.name,
                    "op": d.site.optype.value,
                    "run": d.run_id,
                }
                for d in log.delays
            ],
            "events": [event.to_dict() for event in log.events],
        },
    }


def execution_from_dict(data: dict) -> TestExecution:
    log_data = data["log"]
    log = TraceLog(run_id=int(log_data["run_id"]))
    for d in log_data["delays"]:
        log.add_delay(
            DelayInterval(
                thread_id=int(d["tid"]),
                start=float(d["start"]),
                end=float(d["end"]),
                site=OpRef(d["name"], OpType(d["op"])),
                run_id=int(d.get("run", log.run_id)),
            )
        )
    log.events = [TraceEvent.from_dict(e) for e in log_data["events"]]
    return TestExecution(
        test_name=data["test"],
        log=log,
        steps=int(data["steps"]),
        error=data["error"],
    )


def _clone_executions(
    executions: List[TestExecution],
) -> List[TestExecution]:
    """Deep copy via the serialization round-trip (the one deep-copy
    recipe the cache already trusts for disk entries)."""
    return [execution_from_dict(execution_to_dict(e)) for e in executions]


class TraceCache:
    """In-memory LRU of observed rounds, optionally backed by a JSON dir.

    ``get``/``put`` operate on whole rounds (lists of
    :class:`TestExecution`).  With a ``path``, every stored round is also
    written to ``<path>/<key>.json`` and disk entries hydrate the LRU on
    first access, so a second process invocation runs warm.
    """

    def __init__(
        self,
        path: Optional[Union[str, "os.PathLike[str]"]] = None,
        memory_entries: int = 256,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.path = os.fspath(path) if path is not None else None
        self.memory_entries = memory_entries
        self._lru: "OrderedDict[str, List[TestExecution]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- lookup --------------------------------------------------------------

    def get(self, key: str) -> Optional[List[TestExecution]]:
        """The cached round for ``key``, or None (counts a hit or miss).

        Returns a deep copy: callers may freely mutate the executions
        (the trace sanitizer rewrites event lists in place) without
        corrupting the cached round for later hits.
        """
        if key in self._lru:
            self._lru.move_to_end(key)
            self.hits += 1
            return _clone_executions(self._lru[key])
        executions = self._read_disk(key)
        if executions is not None:
            # Freshly deserialized objects are private already; hand them
            # out and remember a separate copy.
            self._remember(key, _clone_executions(executions))
            self.hits += 1
            return executions
        self.misses += 1
        return None

    def put(self, key: str, executions: List[TestExecution]) -> None:
        """Store one observed round under its content key.

        Deep-copies the executions so later caller-side mutation cannot
        alias into the cache.
        """
        self._remember(key, _clone_executions(executions))
        self._write_disk(key, executions)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_entries": len(self._lru),
        }

    def clear(self) -> None:
        """Drop the in-memory LRU (disk entries are untouched)."""
        self._lru.clear()

    # -- internals -----------------------------------------------------------

    def _remember(self, key: str, executions: List[TestExecution]) -> None:
        self._lru[key] = list(executions)
        self._lru.move_to_end(key)
        while len(self._lru) > self.memory_entries:
            self._lru.popitem(last=False)

    def _entry_path(self, key: str) -> str:
        assert self.path is not None
        return os.path.join(self.path, f"{key}.json")

    def _read_disk(self, key: str) -> Optional[List[TestExecution]]:
        if self.path is None:
            return None
        entry = self._entry_path(key)
        try:
            with open(entry, "r", encoding="utf-8") as fp:
                data = json.load(fp)
        except (OSError, ValueError):
            return None
        if data.get("version") != CACHE_FORMAT_VERSION:
            return None
        return [execution_from_dict(e) for e in data["executions"]]

    def _write_disk(self, key: str, executions: List[TestExecution]) -> None:
        if self.path is None:
            return
        os.makedirs(self.path, exist_ok=True)
        entry = self._entry_path(key)
        tmp = f"{entry}.tmp.{os.getpid()}"
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "executions": [execution_to_dict(e) for e in executions],
        }
        try:
            with open(tmp, "w", encoding="utf-8") as fp:
                json.dump(payload, fp)
            os.replace(tmp, entry)
        except OSError:
            # Disk store is best-effort; the in-memory entry still serves.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def __repr__(self) -> str:
        backing = f"disk={self.path!r}" if self.path else "memory-only"
        return (
            f"TraceCache({backing}, entries={len(self._lru)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


__all__ = [
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "TraceCache",
    "execution_from_dict",
    "execution_to_dict",
    "freeze_delay_plan",
    "round_key",
    "thaw_delay_plan",
]
