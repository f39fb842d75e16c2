"""The pluggable engine layer: spec parsing, the ``engine=`` API, the
runtime's async bridge, and runtime lifecycle guarantees.

The byte-identity matrix (serial == process == cached) lives in
``test_runtime_determinism.py``; this file covers the API surface and
the engine-specific semantics around it.
"""

import asyncio
import json
import os
import threading

import pytest

import repro
from repro.core import SherlockConfig
from repro.core.serialize import report_to_dict
from repro.fuzz import CampaignConfig
from repro.fuzz.sanitizer import trace_digest
from repro.metrics import count, recording
from repro.predict import PowerConfig
from repro.predict.convert import ConvertConfig
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
            ("process:1", ("process", 1)),
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
         "auto", "auto:4", "", "async", "async:8"],
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
        assert isinstance(coerce_engine("serial"), SerialEngine)

    def test_sized_specs(self):
        assert coerce_engine("process:5").concurrency == 5

    def test_unsized_specs_fall_back_to_cpu_count(self):
        assert coerce_engine("process").concurrency == (os.cpu_count() or 4)

    @pytest.mark.parametrize("spec", ["serial", "process:1", "process:3"])
    def test_engine_spec_round_trips(self, spec):
        """``Engine.spec`` (what job reports record) names the engine
        it came from, concurrency included."""
        assert coerce_engine(spec).spec == spec

    def test_engine_instance_passes_through(self):
        engine = SerialEngine()
        assert coerce_engine(engine) is engine

    @pytest.mark.parametrize(
        "config_cls", [CampaignConfig, PowerConfig, ConvertConfig]
    )
    def test_job_configs_reject_bad_spec(self, config_cls):
        for spec in ("threads", "auto", "process:0"):
            with pytest.raises(ValueError, match="engine spec"):
                config_cls(app_ids=["App-7"], engine=spec).validate()
        config_cls(app_ids=["App-7"], engine="process:2").validate()


# -- rounds through the async bridge -----------------------------------------


class TestAsyncEngineRounds:
    """Rounds driven through ``ExecutionRuntime.aobserve_round``, the one
    async bridge (``repro.run`` and ``repro.arun`` both await it)."""

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
        """The one async bridge, ``ExecutionRuntime.aobserve_round``,
        runs the synchronous round in a worker thread: a cold and a warm
        (cached) round both leave the loop thread, equal
        ``observe_round``'s output, and put the counts made in that
        thread into the caller's recording."""
        lookups = []

        class CountingCache(TraceCache):
            def get(self, key):
                lookups.append(threading.current_thread())
                found = super().get(key)
                count("cache_hits" if found is not None else "cache_misses")
                return found

        app = repro.get_application("App-5")
        config = SherlockConfig(rounds=1, seed=0)
        rt = ExecutionRuntime(engine="serial", cache=CountingCache())
        with ExecutionRuntime() as serial:
            reference = serial.observe_round(app, config, 0)

        async def cold_then_warm():
            outcomes = []
            for _ in range(2):
                with recording() as metrics:
                    outcome = await rt.aobserve_round(app, config, 0)
                outcomes.append((outcome, metrics, threading.current_thread()))
            return outcomes

        (cold, cold_m, loop_thread), (warm, warm_m, _) = asyncio.run(
            cold_then_warm()
        )
        rt.close()
        assert len(lookups) == 2
        assert all(t is not loop_thread for t in lookups)
        assert (cold.cache_hit, warm.cache_hit) == (False, True)
        expected = trace_digest(reference.executions)
        assert trace_digest(cold.executions) == expected
        assert trace_digest(warm.executions) == expected
        assert (cold_m.cache_misses, cold_m.engine_concurrency_hwm) == (1, 1)
        assert (warm_m.cache_hits, warm_m.engine_concurrency_hwm) == (1, 0)
