"""Per-layer spans for the traced pass, recorded from outside ``src/``.

Each :class:`Site` names one public entry point of a layer.  While a
:func:`traced` block is open, every module-level binding of a wrapped
function under ``repro.*`` (or, for a method, its class attribute) is
replaced by a wrapper that records a span ``{name, start, end, parent,
op_id}`` and, through an optional hook, counts the work the call did.
Every binding is restored when the block exits.

Functions called more than ~10^4 times per run (``closure.predicts``,
``spec.is_*_event``) are deliberately not sites: their span cost would
swamp the work they do.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Hook = Callable[[Counter, tuple, Any], None]


@dataclass(frozen=True)
class Site:
    """One wrapped entry point: ``target`` is ``"module:Qualname"``."""

    layer: str
    target: str
    hook: Optional[Hook] = None

    @property
    def label(self) -> str:
        """Span name: the layer plus the wrapped function's own name."""
        return f"{self.layer}:{self.target.split(':')[1].split('.')[-1]}"


def _count_events(counts: Counter, args: tuple, result: Any) -> None:
    counts["sim.events"] += len(result.log)


def _count_cache_lookup(counts: Counter, args: tuple, result: Any) -> None:
    counts["runtime.cache.hits" if result is not None else "runtime.cache.misses"] += 1


def _count_windows(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.windows.windows"] += len(result)


def _count_incremental_encode(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.encoder.rebuilds"] += int(args[0].last_rebuild)


def _count_rebuild(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.encoder.rebuilds"] += 1


def _count_inference(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.encoder.appended"] += result.lp_delta_variables
    counts["core.encoder.model_vars"] += result.n_variables


def _count_presolve(counts: Counter, args: tuple, result: Any) -> None:
    counts["lp.presolve.rows_eliminated"] += result.rows_eliminated
    counts["lp.presolve.cols_eliminated"] += result.cols_eliminated


def _count_solve(counts: Counter, args: tuple, result: Any) -> None:
    counts["lp.iterations"] += result.iterations
    counts["lp.variables_max"] = max(
        counts["lp.variables_max"], len(args[0].variables)
    )


def _count_validation(counts: Counter, args: tuple, result: Any) -> None:
    counts["predict.witness.validated"] += int(not result)


def _count_pairs(counts: Counter, args: tuple, result: Any) -> None:
    counts["predict.pairs_checked"] += result.pairs_checked
    counts["predict.pairs_predicted"] += result.pairs_predicted


def _count_conversions(counts: Counter, args: tuple, result: Any) -> None:
    counts["predict.convert.converted"] += sum(v.converted for v in result)


SITES: Tuple[Site, ...] = (
    Site("sim", "repro.sim.runner:run_unit_test", _count_events),
    Site("runtime.observe", "repro.runtime.engine:ExecutionRuntime.aobserve_round"),
    Site("runtime.cache", "repro.runtime.cache:TraceCache.get", _count_cache_lookup),
    Site("runtime.cache", "repro.runtime.cache:TraceCache.put"),
    Site("core.windows", "repro.core.windows:WindowExtractor.extract", _count_windows),
    Site("core.stats", "repro.core.stats:ObservationStore.ingest_run"),
    Site(
        "core.encoder",
        "repro.core.encoder:IncrementalEncoder.encode",
        _count_incremental_encode,
    ),
    Site("core.encoder", "repro.core.encoder:build_model", _count_rebuild),
    Site("lp.model", "repro.lp.model:Model.to_standard_form"),
    Site("lp.model", "repro.lp.model:Model.to_standard_form_cached"),
    Site("lp.presolve", "repro.lp.presolve:presolve_form", _count_presolve),
    Site("lp.backends", "repro.lp.backends:solve", _count_solve),
    Site("lp.backends", "repro.lp.scipy_backend:solve_scipy"),
    Site("core.perturber", "repro.core.perturber:build_delay_plan"),
    Site("core.solver", "repro.core.solver:infer", _count_inference),
    Site("core.pipeline", "repro.core.pipeline:Sherlock.arun"),
    Site("racedet", "repro.racedet.fasttrack:analyze_run"),
    Site("predict.closure", "repro.predict.closure:SyncPreservingClosure.__init__"),
    Site("predict.closure", "repro.predict.closure:sync_pairings"),
    Site("predict.witness", "repro.predict.witness:build_witness"),
    Site("predict.witness", "repro.predict.witness:validate_witness", _count_validation),
    Site(
        "predict.detector",
        "repro.predict.detector:PredictiveDetector.analyze",
        _count_pairs,
    ),
    Site("predict.convert", "repro.predict.convert:run_baseline_job"),
    Site("predict.convert", "repro.predict.convert:run_convert_job"),
    Site(
        "predict.convert",
        "repro.predict.convert:cascade_conversions",
        _count_conversions,
    ),
    Site("fuzz.sanitizer", "repro.fuzz.sanitizer:TraceSanitizer.sanitize"),
    Site("fuzz.sanitizer", "repro.fuzz.sanitizer:trace_digest"),
    Site("fuzz.oracles", "repro.fuzz.oracles:ground_truth_oracle"),
    Site("fuzz.oracles", "repro.fuzz.oracles:lambda_stability_oracle"),
    Site("fuzz.oracles", "repro.fuzz.oracles:predicted_unwitnessed_oracle"),
    Site("fuzz.campaign", "repro.fuzz.campaign:run_schedule_job"),
)

#: Layers in pipeline order; each reports its self time per op.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(site.layer for site in SITES))

#: Root span wrapped around every benchmark op.
ROOT = "op"

#: Span counts per op reported as ``<metric>``: metric → site label.
_CALLS = {
    "sim.calls": "sim:run_unit_test",
    "core.windows.calls": "core.windows:extract",
    "lp.presolve.calls": "lp.presolve:presolve_form",
    "lp.backends.calls": "lp.backends:solve",
    "racedet.calls": "racedet:analyze_run",
    "predict.sync_pairings.calls": "predict.closure:sync_pairings",
    "predict.convert.runs": "predict.convert:run_convert_job",
    "fuzz.sanitizer.calls": "fuzz.sanitizer:sanitize",
}

#: Inclusive span time per op reported as ``<metric>``: metric → site label.
_SITE_MS = {
    "runtime.cache.get_ms": "runtime.cache:get",
    "runtime.cache.put_ms": "runtime.cache:put",
    "lp.highs_ms": "lp.backends:solve_scipy",
    "predict.witness.build_ms": "predict.witness:build_witness",
    "predict.witness.validate_ms": "predict.witness:validate_witness",
}

#: Hook counters reported per op.
_COUNTS = (
    "sim.events",
    "runtime.cache.hits",
    "runtime.cache.misses",
    "core.windows.windows",
    "core.encoder.rebuilds",
    "lp.presolve.rows_eliminated",
    "lp.presolve.cols_eliminated",
    "lp.iterations",
    "predict.witness.validated",
    "predict.pairs_checked",
    "predict.pairs_predicted",
)

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((f"{layer}.self_ms", "ms/op") for layer in LAYERS),
    *((name, "count/op") for name in _CALLS),
    *((name, "count/op") for name in _COUNTS),
    *((name, "ms/op") for name in _SITE_MS),
    ("sim.events_per_s", "1/s"),
    ("lp.variables_max", "count"),
    ("core.encoder.delta_ratio", "ratio"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("predict.predicted_ratio", "ratio"),
    ("predict.convert.yield", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.span_overhead", "ratio"),
    ("bench.unattributed_frac", "ratio"),
)


class Recorder:
    """Spans and counters of one traced pass, kept in memory.

    A span is ``[name, start, end, parent, op_id, child_s]``; ``parent``
    indexes :attr:`spans` and ``child_s`` accumulates the time covered
    by direct children, so self time is ``end - start - child_s``.  The
    current parent lives in a context variable, so spans opened in a
    worker thread (``asyncio.to_thread``) still nest under their caller.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op_id: Optional[int] = None
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent", default=None
        )

    def open(self, name: str) -> Tuple[int, contextvars.Token]:
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, self._parent.get(), self.op_id, 0.0]
        )
        return index, self._parent.set(index)

    def close(self, index: int, token: contextvars.Token) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._parent.reset(token)
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Root span around one benchmark op."""
        self.op_id = op_id
        index, token = self.open(ROOT)
        try:
            yield
        finally:
            self.close(index, token)
            self.op_id = None

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent, op_id, _ in self.spans:
                fp.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op_id": op_id,
                        }
                    )
                    + "\n"
                )


def _wrap(recorder: Recorder, site: Site, original: Callable) -> Callable:
    label, hook = site.label, site.hook
    if inspect.iscoroutinefunction(original):

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            index, token = recorder.open(label)
            try:
                result = await original(*args, **kwargs)
            finally:
                recorder.close(index, token)
            if hook is not None:
                hook(recorder.counts, args, result)
            return result

    else:

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index, token = recorder.open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index, token)
            if hook is not None:
                hook(recorder.counts, args, result)
            return result

    return functools.wraps(original)(wrapper)


def import_all_repro() -> None:
    """Import every ``repro`` module, so no lazy import can bind a
    wrapper after the pass and outlive the restore."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # that one runs the CLI
            importlib.import_module(info.name)


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def resolve(site: Site) -> Tuple[Any, str, Callable]:
    """(owner, attribute, original) of a site; raises when ``src/``
    renamed or removed it, so a stale site fails loudly."""
    module_name, qualname = site.target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if path else getattr(owner, attr)
    if not inspect.isfunction(original):
        raise TypeError(f"{site.target} is not a plain function")
    return owner, attr, original


def install(recorder: Recorder, sites: Tuple[Site, ...] = SITES) -> List[tuple]:
    """Wrap every site; returns the ``(owner, attr, original)`` patches."""
    import_all_repro()
    patches: List[tuple] = []
    modules = _repro_modules()
    for site in sites:
        owner, attr, original = resolve(site)
        wrapper = _wrap(recorder, site, original)
        if inspect.isclass(owner):
            bindings = [(owner, attr)]
        else:
            bindings = [
                (module, name)
                for module in modules
                for name, value in list(vars(module).items())
                if value is original
            ]
        for target, name in bindings:
            patches.append((target, name, original))
            setattr(target, name, wrapper)
    return patches


def uninstall(patches: List[tuple]) -> None:
    for target, name, original in reversed(patches):
        setattr(target, name, original)


@contextmanager
def traced(recorder: Recorder) -> Iterator[None]:
    """Wrap every site for the duration of the block."""
    patches = install(recorder)
    try:
        yield
    finally:
        uninstall(patches)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: Recorder,
    untraced_s: float,
    trace_overhead: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass.

    ``untraced_s`` is the summed op time of the same ops without
    tracing; ``trace_overhead`` comes from the §5.6 probe.
    """
    layer_of = {site.label: site.layer for site in SITES}
    self_s: Counter = Counter()
    site_s: Counter = Counter()
    calls: Counter = Counter()
    root_self = traced_s = 0.0
    for name, start, end, _parent, _op, child_s in recorder.spans:
        duration = end - start
        calls[name] += 1
        if name == ROOT:
            traced_s += duration
            root_self += duration - child_s
        else:
            self_s[layer_of[name]] += duration - child_s
            site_s[name] += duration
    ops = calls[ROOT] or 1
    counts = recorder.counts
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1000.0 * self_s[layer] / ops
    for metric, label in _CALLS.items():
        out[metric] = calls[label] / ops
    for metric in _COUNTS:
        out[metric] = counts[metric] / ops
    for metric, label in _SITE_MS.items():
        out[metric] = 1000.0 * site_s[label] / ops
    out["sim.events_per_s"] = _ratio(counts["sim.events"], self_s["sim"])
    out["lp.variables_max"] = float(counts["lp.variables_max"])
    out["core.encoder.delta_ratio"] = _ratio(
        counts["core.encoder.appended"], counts["core.encoder.model_vars"]
    )
    out["runtime.cache.hit_ratio"] = _ratio(
        counts["runtime.cache.hits"],
        counts["runtime.cache.hits"] + counts["runtime.cache.misses"],
    )
    out["predict.predicted_ratio"] = _ratio(
        counts["predict.pairs_predicted"], counts["predict.pairs_checked"]
    )
    out["predict.convert.yield"] = _ratio(
        counts["predict.convert.converted"],
        calls["predict.convert:run_convert_job"],
    )
    out["trace.overhead_ratio"] = trace_overhead
    out["bench.span_overhead"] = _ratio(traced_s, untraced_s) - 1.0
    out["bench.unattributed_frac"] = _ratio(root_self, traced_s)
    return out
