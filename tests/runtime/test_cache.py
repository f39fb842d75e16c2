"""Unit tests for the content-addressed trace cache and its keying."""

import pytest

from repro.apps.registry import get_application
from repro.core import SherlockConfig
from repro.core.observer import Observer
from repro.runtime import (
    ExecutionRuntime,
    TraceCache,
    freeze_delay_plan,
    round_key,
    thaw_delay_plan,
)
from repro.runtime.cache import execution_from_dict, execution_to_dict
from repro.sim.kernel import DelaySpec
from repro.trace.optypes import OpRef, OpType


def _plan(name="C::m", duration=0.1):
    trigger = OpRef(name, OpType.ENTER)
    site = OpRef(name, OpType.EXIT)
    return {trigger: DelaySpec(duration=duration, site=site)}


def _key(**overrides):
    base = dict(
        app_id="App-2",
        seed=0,
        op_cost=0.002,
        max_steps=2_000_000,
        delay_plan=_plan(),
        round_index=1,
    )
    base.update(overrides)
    return round_key(**base)


class TestRoundKey:
    def test_stable_for_identical_inputs(self):
        assert _key() == _key()

    def test_plan_order_is_canonicalized(self):
        a = {**_plan("A::m"), **_plan("B::m")}
        b = {**_plan("B::m"), **_plan("A::m")}
        assert _key(delay_plan=a) == _key(delay_plan=b)

    @pytest.mark.parametrize(
        "change",
        [
            {"app_id": "App-3"},
            {"seed": 1},
            {"op_cost": 0.004},
            {"max_steps": 1000},
            {"round_index": 2},
            {"delay_plan": {}},
            {"delay_plan": _plan(duration=0.2)},
            {"delay_plan": _plan(name="Other::m")},
        ],
    )
    def test_any_trace_determining_change_misses(self, change):
        assert _key(**change) != _key()

    def test_freeze_thaw_round_trip(self):
        plan = {**_plan("A::m"), **_plan("B::m", duration=0.3)}
        assert thaw_delay_plan(freeze_delay_plan(plan)) == plan

    def test_bare_float_plans_freeze(self):
        trigger = OpRef("C::f", OpType.WRITE)
        frozen = freeze_delay_plan({trigger: 0.1})
        thawed = thaw_delay_plan(frozen)
        assert thawed[trigger].duration == pytest.approx(0.1)
        assert thawed[trigger].site == trigger


class TestTraceCache:
    def _one_round(self, app_id="App-5"):
        app = get_application(app_id)
        config = SherlockConfig(rounds=1, seed=0)
        return Observer(config).observe_round(app, 0, {})

    def test_memory_round_trip(self):
        cache = TraceCache()
        executions = self._one_round()
        assert cache.get("k") is None
        cache.put("k", executions)
        got = cache.get("k")
        assert got is not None
        assert [e.test_name for e in got] == [
            e.test_name for e in executions
        ]
        assert cache.stats() == {"hits": 1, "misses": 1, "memory_entries": 1}

    def test_lru_evicts_oldest(self):
        cache = TraceCache(memory_entries=2)
        executions = self._one_round()
        cache.put("a", executions)
        cache.put("b", executions)
        cache.put("c", executions)
        assert cache.get("a") is None  # evicted
        assert cache.get("b") is not None
        assert cache.get("c") is not None

    def test_disk_store_survives_new_instance(self, tmp_path):
        executions = self._one_round()
        TraceCache(tmp_path).put("k", executions)
        fresh = TraceCache(tmp_path)
        got = fresh.get("k")
        assert got is not None
        assert fresh.hits == 1
        original = executions[0]
        loaded = got[0]
        assert loaded.steps == original.steps
        assert loaded.log.events == original.log.events

    def test_execution_dict_round_trip_preserves_trace(self):
        for original in self._one_round("App-7"):
            loaded = execution_from_dict(execution_to_dict(original))
            assert loaded.test_name == original.test_name
            assert loaded.steps == original.steps
            assert loaded.error == original.error
            assert loaded.log.run_id == original.log.run_id
            assert loaded.log.events == original.log.events
            assert loaded.log.delays == original.log.delays
            # meta is excluded from TraceEvent equality; check explicitly.
            assert [e.meta for e in loaded.log.events] == [
                e.meta for e in original.log.events
            ]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceCache(memory_entries=0)


class TestAliasing:
    """Regression: get/put used to share TestExecution/TraceLog objects
    with callers, so mutating a returned round (the trace sanitizer does)
    corrupted the cached copy for every later hit."""

    def _one_round(self, app_id="App-5"):
        app = get_application(app_id)
        config = SherlockConfig(rounds=1, seed=0)
        return Observer(config).observe_round(app, 0, {})

    def test_mutating_get_result_does_not_corrupt_cache(self):
        cache = TraceCache()
        cache.put("k", self._one_round())
        first = cache.get("k")
        baseline = [execution_to_dict(e) for e in first]
        # Mutate everything a consumer could touch (events are frozen,
        # but the lists holding them are not).
        first[0].log.events.pop()
        first[0].log.events.reverse()
        del first[1:]
        second = cache.get("k")
        assert [execution_to_dict(e) for e in second] == baseline

    def test_mutating_put_input_does_not_corrupt_cache(self):
        cache = TraceCache()
        executions = self._one_round()
        baseline = [execution_to_dict(e) for e in executions]
        cache.put("k", executions)
        executions[0].log.events.clear()
        executions[0].error = "mutated"
        got = cache.get("k")
        assert [execution_to_dict(e) for e in got] == baseline

    def test_distinct_objects_per_hit(self):
        cache = TraceCache()
        cache.put("k", self._one_round())
        a = cache.get("k")
        b = cache.get("k")
        assert a[0] is not b[0]
        assert a[0].log is not b[0].log
        assert a[0].log.events[0] is not b[0].log.events[0]


class TestRuntimeCacheIntegration:
    def test_changed_seed_misses_warm_cache(self):
        cache = TraceCache()
        app = get_application("App-5")
        runtime = ExecutionRuntime(cache=cache)
        cfg = SherlockConfig(rounds=1, seed=0)
        runtime.observe_round(app, cfg, 0, {})
        assert cache.misses == 1
        outcome = runtime.observe_round(app, cfg, 0, {})
        assert outcome.cache_hit and cache.hits == 1
        reseeded = runtime.observe_round(
            app, cfg.without(seed=7), 0, {}
        )
        assert not reseeded.cache_hit
        assert cache.misses == 2

    def test_changed_delay_plan_misses_warm_cache(self):
        cache = TraceCache()
        app = get_application("App-5")
        runtime = ExecutionRuntime(cache=cache)
        cfg = SherlockConfig(rounds=1, seed=0)
        runtime.observe_round(app, cfg, 1, {})
        outcome = runtime.observe_round(app, cfg, 1, _plan())
        assert not outcome.cache_hit
        assert cache.misses == 2

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ExecutionRuntime(engine="process:0")
