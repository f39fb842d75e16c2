"""The one-call public entry points: :func:`repro.run` / :func:`repro.arun`.

``repro.run("App-2", engine="process:4", cache=True)`` resolves the
application, builds an :class:`~repro.runtime.engine.ExecutionRuntime`
(pluggable engine + trace cache), runs the full multi-round SherLock
pipeline, and returns the :class:`~repro.core.pipeline.SherlockReport`.
``repro.arun`` is the asyncio-native twin (``await repro.arun("App-2")``)
with the same defaults; both produce byte-identical reports for the same
inputs regardless of engine.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .apps.registry import get_application
from .core.config import SherlockConfig
from .core.pipeline import Sherlock, SherlockReport
from .racedet.spec import HappensBeforeSpec
from .runtime.cache import DEFAULT_CACHE_DIR, TraceCache
from .runtime.engine import ExecutionRuntime
from .runtime.engines import Engine
from .sim.program import Application

CacheSpec = Union[None, bool, str, "os.PathLike[str]", TraceCache]

#: ``engine=`` accepts a spec string ("serial" | "process[:N]"), a live
#: :class:`Engine`, or a caller-owned :class:`ExecutionRuntime` (used
#: as-is and kept open).
RunEngineSpec = Union[None, str, Engine, ExecutionRuntime]


def coerce_cache(cache: CacheSpec) -> Optional[TraceCache]:
    """Interpret the ``cache=`` argument of :func:`run` / :func:`arun`.

    ``None``/``False`` → no caching; ``True`` → on-disk store under
    ``.repro_cache/``; ``"memory"`` → in-process LRU only (no disk
    store); any other path → on-disk store there; a :class:`TraceCache`
    is used as-is (sharable across calls).
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return TraceCache(DEFAULT_CACHE_DIR)
    if isinstance(cache, TraceCache):
        return cache
    if isinstance(cache, str) and cache == "memory":
        return TraceCache()
    return TraceCache(os.fspath(cache))


def _resolve_app(app_or_id: Union[Application, str]) -> Application:
    return (
        get_application(app_or_id)
        if isinstance(app_or_id, str)
        else app_or_id
    )


def run(
    app_or_id: Union[Application, str],
    config: Optional[SherlockConfig] = None,
    *,
    rounds: Optional[int] = None,
    engine: RunEngineSpec = None,
    cache: CacheSpec = None,
) -> SherlockReport:
    """Run SherLock on an application and return its report.

    Fully synchronous for callers — no event loop required (and a
    running one is tolerated: the pipeline then runs on a private loop
    in a helper thread).  Results are byte-identical across engines.

    Parameters
    ----------
    app_or_id:
        An :class:`Application` or a benchmark app id like ``"App-2"``
        (resolved via :func:`repro.get_application`).
    config:
        Pipeline configuration; defaults to the paper's settings.
    rounds:
        Overrides ``config.rounds`` (the report's config reflects what
        actually ran).
    engine:
        How to execute unit-test jobs: ``"serial"`` (default),
        ``"process[:N]"`` (process pool), a live
        :class:`~repro.runtime.engines.Engine`, or a pre-built
        :class:`ExecutionRuntime` (used as-is and kept open; its cache
        wins over ``cache=``).  ``None`` means serial.
    cache:
        ``True`` / ``"memory"`` / a directory path / a
        :class:`TraceCache` to memoize observed rounds; ``None``
        disables caching.
    """
    app = _resolve_app(app_or_id)
    if isinstance(engine, ExecutionRuntime):
        return Sherlock(app, config, runtime=engine).run(rounds=rounds)
    with ExecutionRuntime(engine=engine, cache=coerce_cache(cache)) as rt:
        return Sherlock(app, config, runtime=rt).run(rounds=rounds)


async def arun(
    app_or_id: Union[Application, str],
    config: Optional[SherlockConfig] = None,
    *,
    rounds: Optional[int] = None,
    engine: RunEngineSpec = None,
    cache: CacheSpec = None,
) -> SherlockReport:
    """Async-native :func:`run`: ``await repro.arun("App-2")``.

    Runs on the caller's event loop; trace-cache disk I/O and each
    round's test execution happen in worker threads, so the loop stays
    responsive.  Same arguments and defaults as :func:`run`, and
    byte-for-byte the same report.
    """
    app = _resolve_app(app_or_id)
    if isinstance(engine, ExecutionRuntime):
        return await Sherlock(app, config, runtime=engine).arun(
            rounds=rounds
        )
    rt = ExecutionRuntime(engine=engine, cache=coerce_cache(cache))
    try:
        return await Sherlock(app, config, runtime=rt).arun(rounds=rounds)
    finally:
        rt.close()


def predict_races(
    app_or_id: Union[Application, str],
    *,
    spec: Union[str, HappensBeforeSpec] = "manual",
    seed: int = 0,
    rounds: int = 3,
    schedule_policy: str = "random",
):
    """Predictive (sync-preserving) race detection on one app run.

    Runs the app's unit tests once under ``seed``/``schedule_policy``
    and analyzes every trace with the sync-preserving predictive
    detector (:mod:`repro.predict`) next to FastTrack under the same
    happens-before spec.  Returns a
    :class:`~repro.predict.harness.PredictionReport`: predicted races
    with sanitizer-validated witness reorderings, FastTrack's first
    races, and the per-field detection-power deltas.

    ``spec`` selects the sync vocabulary: ``"manual"`` (Manual_pr, the
    hand annotations), ``"sherlock"`` (SherLock_pr — runs the inference
    pipeline for ``rounds`` first), or any
    :class:`~repro.racedet.spec.HappensBeforeSpec`.
    """
    from .predict.harness import predict_app
    from .racedet.annotations import manual_spec, sherlock_spec

    app = _resolve_app(app_or_id)
    if isinstance(spec, HappensBeforeSpec):
        hb_spec = spec
    elif spec == "manual":
        hb_spec = manual_spec(app)
    elif spec == "sherlock":
        config = SherlockConfig(
            rounds=rounds, seed=seed, schedule_policy=schedule_policy
        )
        hb_spec = sherlock_spec(Sherlock(app, config).run().final)
    else:
        raise ValueError(
            f"spec must be 'manual', 'sherlock', or a HappensBeforeSpec, "
            f"got {spec!r}"
        )
    return predict_app(
        app, hb_spec, seed=seed, policy=schedule_policy
    )


def convert_predictions(
    apps: Union[Application, str, "list[Union[Application, str]]"],
    *,
    spec: str = "manual",
    seed: int = 0,
    schedules: int = 4,
    rounds: int = 3,
    policy: str = "random",
    targets: Optional[dict] = None,
    engine: Optional[str] = None,
):
    """Directed schedule search over predicted-only races.

    Takes the apps' predicted-but-not-first races (from
    :func:`predict_races` / a campaign's ``schedule_targets()``), fans
    ``schedules`` :class:`~repro.sim.schedule.DirectedPolicy` runs per
    app over the execution engine, and returns a
    :class:`~repro.predict.convert.ConvertReport`: per target, either
    *converted* (the prediction was validated by an observed FastTrack
    race under the rolling soundness horizon) or *flagged* (no directed
    schedule converted it — a candidate false prediction).

    ``targets`` optionally maps app ids to explicit target lists (the
    shape ``CampaignReport.schedule_targets()`` returns); apps not
    listed derive targets from their own prediction baseline.
    ``engine`` is a spec string (``"serial"`` | ``"process[:N]"``);
    ``None`` means serial.
    """
    from .predict.convert import ConvertConfig, run_conversion

    if isinstance(apps, (str, Application)):
        apps = [apps]
    app_ids = [_resolve_app(a).app_id for a in apps]
    specs = ("manual", "sherlock") if spec == "both" else (spec,)
    config = ConvertConfig(
        app_ids=app_ids,
        schedules=schedules,
        base_seed=seed,
        rounds=rounds,
        policy=policy,
        specs=specs,
        engine=engine,
        targets=targets,
    )
    return run_conversion(config)


__all__ = [
    "arun",
    "coerce_cache",
    "convert_predictions",
    "predict_races",
    "run",
]
