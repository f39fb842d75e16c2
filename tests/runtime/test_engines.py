"""The pluggable engine layer: spec parsing, the ``engine=`` redesign,
the async engine's bounded fan-out and cooperative cancellation, legacy
kwarg shims, and runtime lifecycle guarantees.

The byte-identity matrix (serial == process == async == cached) lives in
``test_runtime_determinism.py``; this file covers the API surface and
the engine-specific semantics around it.
"""

import asyncio
import json
import threading
import time
import warnings

import pytest

import repro
from repro.api import _shim_legacy_kwargs
from repro.core import SherlockConfig
from repro.core.serialize import report_to_dict
from repro.metrics import recording
from repro.runtime import (
    AsyncEngine,
    Engine,
    ExecutionRuntime,
    ProcessEngine,
    SerialEngine,
    TraceCache,
    coerce_engine,
    parse_engine_spec,
)


def canonical(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


# -- spec parsing ------------------------------------------------------------


class TestParseEngineSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("auto", ("auto", None)),
            ("serial", ("serial", None)),
            ("process", ("process", None)),
            ("process:4", ("process", 4)),
            ("async", ("async", None)),
            ("async:8", ("async", 8)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_engine_spec(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        ["threads", "process:0", "process:-1", "process:x", "serial:2",
         "auto:4", ""],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_engine_spec(spec)

    def test_non_string_raises_type_error(self):
        with pytest.raises(TypeError):
            parse_engine_spec(4)


class TestCoerceEngine:
    def test_default_is_serial(self):
        assert isinstance(coerce_engine(None), SerialEngine)
        assert isinstance(coerce_engine("auto"), SerialEngine)

    def test_auto_with_workers_picks_process_pool(self):
        engine = coerce_engine("auto", default_workers=3)
        assert isinstance(engine, ProcessEngine)
        assert engine.concurrency == 3

    def test_sized_specs(self):
        assert coerce_engine("process:5").concurrency == 5
        assert coerce_engine("async:7").concurrency == 7

    def test_unsized_specs_size_from_default_workers(self):
        assert coerce_engine("process", default_workers=6).concurrency == 6
        assert coerce_engine("async", default_workers=6).concurrency == 6

    def test_unsized_specs_fall_back_to_cpu_count(self):
        assert coerce_engine("async").concurrency >= 1

    def test_engine_instance_passes_through(self):
        engine = SerialEngine()
        assert coerce_engine(engine) is engine

    def test_config_rejects_bad_spec_at_construction(self):
        with pytest.raises(ValueError, match="engine spec"):
            SherlockConfig(engine="threads")
        assert SherlockConfig(engine="async:2").engine == "async:2"


# -- legacy kwarg shims ------------------------------------------------------


class TestLegacyKwargShims:
    def test_workers_one_maps_to_serial(self):
        with pytest.warns(DeprecationWarning, match="workers"):
            assert _shim_legacy_kwargs(None, 1, None) == "serial"

    def test_workers_n_maps_to_process_pool(self):
        with pytest.warns(DeprecationWarning, match="process:N"):
            assert _shim_legacy_kwargs(None, 4, None) == "process:4"

    def test_runtime_maps_to_engine(self):
        rt = ExecutionRuntime()
        with pytest.warns(DeprecationWarning, match="engine="):
            assert _shim_legacy_kwargs(None, None, rt) is rt
        rt.close()

    def test_engine_plus_workers_conflict(self):
        with pytest.raises(TypeError, match="workers"):
            _shim_legacy_kwargs("serial", 4, None)

    def test_engine_plus_runtime_conflict(self):
        rt = ExecutionRuntime()
        with pytest.raises(TypeError, match="runtime"):
            _shim_legacy_kwargs("serial", None, rt)
        rt.close()

    def test_run_with_legacy_workers_still_works(self):
        config = SherlockConfig(rounds=1, seed=0)
        baseline = repro.run("App-5", config)
        with pytest.warns(DeprecationWarning, match="engine="):
            legacy = repro.run("App-5", config, workers=1)
        assert canonical(legacy) == canonical(baseline)

    def test_new_api_emits_no_deprecation_warning(self):
        config = SherlockConfig(rounds=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.run("App-5", config, engine="serial", cache="memory")


# -- the async engine --------------------------------------------------------


class TestAsyncEngine:
    def test_concurrency_is_bounded_by_semaphore(self):
        engine = AsyncEngine(concurrency=2)

        def job(i):
            time.sleep(0.02)
            return i * i

        with recording() as metrics:
            results = engine.map_jobs(job, list(range(8)))
        assert results == [i * i for i in range(8)]
        assert 1 <= metrics.engine_concurrency_hwm <= 2
        assert metrics.engine_await_s > 0.0

    def test_jobs_actually_overlap(self):
        # A two-party barrier only releases when two jobs are inside it
        # simultaneously; the 5 s timeout turns a serialized engine into
        # a loud BrokenBarrierError instead of a hang.
        engine = AsyncEngine(concurrency=2)
        barrier = threading.Barrier(2, timeout=5.0)

        def job(i):
            barrier.wait()
            return i

        with recording() as metrics:
            assert engine.map_jobs(job, [0, 1]) == [0, 1]
        assert metrics.engine_concurrency_hwm == 2

    def test_failure_cancels_queued_jobs_and_propagates(self):
        engine = AsyncEngine(concurrency=1)

        def job(i):
            if i == 0:
                raise ValueError("job 0 failed")
            time.sleep(0.2)
            return i

        with recording() as metrics:
            with pytest.raises(ValueError, match="job 0 failed"):
                engine.map_jobs(job, [0, 1, 2])
        assert metrics.engine_jobs_cancelled >= 1
        # The engine stays usable after a failed batch.
        assert engine.map_jobs(lambda i: i + 1, [1, 2]) == [2, 3]

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ValueError):
            AsyncEngine(concurrency=0)

    def test_amap_jobs_runs_on_caller_loop(self):
        engine = AsyncEngine(concurrency=2)

        async def fan_out():
            return await engine.amap_jobs(lambda i: i * 10, [1, 2, 3])

        assert asyncio.run(fan_out()) == [10, 20, 30]


class TestAsyncEngineRounds:
    def test_round_metrics_surface_in_report(self):
        config = SherlockConfig(rounds=2, seed=0)
        report = repro.run("App-7", config, engine="async:4")
        assert report.metrics.engine_concurrency_hwm >= 1
        assert report.metrics.engine_jobs_cancelled == 0
        assert report.metrics.engine_await_s > 0.0
        assert "engine:" in report.metrics.describe()

    def test_arun_matches_sync_run(self):
        config = SherlockConfig(rounds=2, seed=0)
        baseline = repro.run("App-7", config)
        report = asyncio.run(repro.arun("App-7", config))
        assert canonical(report) == canonical(baseline)

    def test_arun_with_memory_cache_replays_identically(self):
        config = SherlockConfig(rounds=2, seed=0)
        cache = TraceCache()

        async def twice():
            cold = await repro.arun("App-7", config, cache=cache)
            warm = await repro.arun("App-7", config, cache=cache)
            return cold, warm

        cold, warm = asyncio.run(twice())
        assert canonical(cold) == canonical(warm)
        assert warm.metrics.cache_hits == 2
        assert warm.metrics.engine_concurrency_hwm == 0  # nothing ran


# -- runtime lifecycle -------------------------------------------------------


class TestRuntimeLifecycle:
    def test_close_is_idempotent(self):
        rt = ExecutionRuntime(engine="async:2")
        rt.close()
        rt.close()
        assert rt.closed

    def test_closed_runtime_rejects_work(self):
        rt = ExecutionRuntime()
        rt.close()
        with pytest.raises(RuntimeError, match="closed"):
            rt.map_jobs(lambda x: x, [1])
        with pytest.raises(RuntimeError, match="closed"):
            rt.observe_round(
                repro.get_application("App-5"), SherlockConfig(), 0
            )

    def test_engine_close_is_idempotent(self):
        for engine in (SerialEngine(), ProcessEngine(2), AsyncEngine(2)):
            engine.close()
            engine.close()

    def test_interrupt_tears_runtime_down(self):
        rt = ExecutionRuntime()

        def interrupt(_):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            rt.map_jobs(interrupt, [1])
        assert rt.closed

    def test_ordinary_exception_leaves_runtime_open(self):
        rt = ExecutionRuntime()

        def boom(_):
            raise ValueError("job failed")

        with pytest.raises(ValueError):
            rt.map_jobs(boom, [1])
        assert not rt.closed
        assert rt.map_jobs(lambda x: x * 2, [3]) == [6]
        rt.close()

    def test_runtime_reports_engine_name_in_outcome(self):
        config = SherlockConfig(rounds=1, seed=0)
        app = repro.get_application("App-5")
        with ExecutionRuntime(engine="async:2") as rt, recording() as metrics:
            outcome = rt.observe_round(app, config, 0)
        assert outcome.engine == "async"
        assert metrics.engine_concurrency_hwm >= 1

    def test_cache_hit_skips_engine(self):
        config = SherlockConfig(rounds=1, seed=0)
        app = repro.get_application("App-5")
        cache = TraceCache()
        with ExecutionRuntime(engine="serial", cache=cache) as rt:
            rt.observe_round(app, config, 0)
            with recording() as metrics:
                outcome = rt.observe_round(app, config, 0)
        assert outcome.cache_hit
        assert outcome.engine == "cache"
        assert metrics.engine_concurrency_hwm == 0


class TestEngineAbstractInterface:
    def test_engine_cannot_be_instantiated(self):
        with pytest.raises(TypeError):
            Engine()

    def test_sync_facade_bridges_custom_async_engine(self):
        class EchoEngine(Engine):
            name = "echo"

            async def aexecute_round(self, app, config, round_index, plan):
                raise NotImplementedError

            async def amap_jobs(self, fn, payloads):
                await asyncio.sleep(0)
                return [fn(p) for p in payloads]

        engine = EchoEngine()
        # The inherited sync façade drives the async implementation.
        assert engine.map_jobs(lambda x: x + 1, [1, 2]) == [2, 3]
