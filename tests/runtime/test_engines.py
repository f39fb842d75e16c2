"""The pluggable engine layer: spec parsing, the ``engine=`` API, the
base class's async bridge, and runtime lifecycle guarantees.

The byte-identity matrix (serial == process == cached) lives in
``test_runtime_determinism.py``; this file covers the API surface and
the engine-specific semantics around it.
"""

import asyncio
import json
import threading

import pytest

import repro
from repro.core import SherlockConfig
from repro.core.serialize import report_to_dict
from repro.metrics import recording
from repro.runtime import (
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
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_engine_spec(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        ["threads", "process:0", "process:-1", "process:x", "serial:2",
         "auto:4", "", "async", "async:8"],
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

    def test_unsized_specs_size_from_default_workers(self):
        assert coerce_engine("process", default_workers=6).concurrency == 6

    def test_unsized_specs_fall_back_to_cpu_count(self):
        assert coerce_engine("process").concurrency >= 1

    def test_engine_instance_passes_through(self):
        engine = SerialEngine()
        assert coerce_engine(engine) is engine

    def test_config_rejects_bad_spec_at_construction(self):
        with pytest.raises(ValueError, match="engine spec"):
            SherlockConfig(engine="threads")
        with pytest.raises(ValueError, match="unknown engine spec"):
            SherlockConfig(engine="async:2")
        assert SherlockConfig(engine="process:2").engine == "process:2"


# -- rounds through the async bridge -----------------------------------------


class TestAsyncEngineRounds:
    """Rounds driven through ``Engine.aexecute_round``, the base class's
    one async bridge (``repro.run`` and ``repro.arun`` both await it)."""

    def test_round_metrics_surface_in_report(self):
        config = SherlockConfig(rounds=2, seed=0)
        report = repro.run("App-7", config, engine="process:2")
        assert report.metrics.engine_concurrency_hwm >= 1
        assert "engine:" in report.metrics.describe()

    def test_serial_arun_keeps_the_caller_loop_running(self):
        """The round runs in a worker thread: a sibling task gets loop
        turns while ``arun`` awaits it, and the engine's count, made
        from that thread, still lands in the round's recording."""

        async def race():
            ticks = 0
            done = False

            async def ticker():
                nonlocal ticks
                while not done:
                    ticks += 1
                    await asyncio.sleep(0)

            task = asyncio.ensure_future(ticker())
            report = await repro.arun(
                "App-7", SherlockConfig(seed=0), engine="serial", rounds=1
            )
            ticks_during_run = ticks
            done = True
            await task
            return report, ticks_during_run

        report, ticks_during_run = asyncio.run(race())
        assert ticks_during_run > 0
        assert report.rounds[0].metrics.engine_concurrency_hwm == 1

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
        rt = ExecutionRuntime(engine="process:2")
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
        for engine in (SerialEngine(), ProcessEngine(2)):
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
        with ExecutionRuntime(engine="process:2") as rt, recording() as metrics:
            outcome = rt.observe_round(app, config, 0)
        assert outcome.engine == "process"
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

    def test_async_bridge_runs_sync_engine_off_loop(self):
        class EchoEngine(Engine):
            def execute_round(self, app, config, round_index, plan):
                return [threading.current_thread()], round_index

            def map_jobs(self, fn, payloads):
                return [fn(p) for p in payloads]

        engine = EchoEngine()

        async def bridged():
            return await engine.aexecute_round(None, None, 7, {})

        # The inherited async bridge drives the sync implementation in a
        # worker thread.
        (thread,), used = asyncio.run(bridged())
        assert used == 7
        assert thread is not threading.main_thread()
