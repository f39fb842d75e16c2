"""Determinism guarantee of the execution runtime.

Serial cold runs, process-pool runs, and warm-cache replays must
serialize byte-identically: the runtime may change *how
fast* traces are produced, never *what* is inferred.
"""

import json

import pytest

import repro
from repro.core import SherlockConfig
from repro.core.serialize import report_to_dict
from repro.runtime import ExecutionRuntime, TraceCache

APPS = ["App-2", "App-5", "App-7", "App-9", "App-10"]


def canonical(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


@pytest.fixture(scope="module")
def serial_baselines():
    config = SherlockConfig(rounds=2, seed=0)
    return {
        app_id: canonical(repro.run(app_id, config)) for app_id in APPS
    }


@pytest.mark.parametrize("app_id", APPS)
def test_parallel_matches_serial(app_id, serial_baselines):
    config = SherlockConfig(rounds=2, seed=0)
    report = repro.run(app_id, config, engine="process:4")
    assert canonical(report) == serial_baselines[app_id]


@pytest.mark.parametrize("app_id", APPS)
def test_warm_cache_matches_serial(app_id, serial_baselines):
    config = SherlockConfig(rounds=2, seed=0)
    cache = TraceCache()
    cold = repro.run(app_id, config, cache=cache)
    warm = repro.run(app_id, config, cache=cache)
    assert canonical(cold) == serial_baselines[app_id]
    assert canonical(warm) == serial_baselines[app_id]
    assert warm.metrics.cache_hits == 2  # both rounds replayed
    assert warm.metrics.cache_misses == 0


@pytest.mark.parametrize("app_id", APPS)
def test_disk_cache_matches_serial(app_id, serial_baselines, tmp_path):
    """A fresh cache instance on the same directory (second process)."""
    config = SherlockConfig(rounds=2, seed=0)
    repro.run(app_id, config, cache=TraceCache(tmp_path))
    warm = repro.run(app_id, config, cache=TraceCache(tmp_path))
    assert canonical(warm) == serial_baselines[app_id]
    assert warm.metrics.cache_hits == 2


def test_parallel_and_cached_compose(serial_baselines):
    """A process pool with a shared cache: cold parallel then warm replay."""
    config = SherlockConfig(rounds=2, seed=0)
    cache = TraceCache()
    with ExecutionRuntime(engine="process:4", cache=cache) as runtime:
        cold = repro.run("App-7", config, engine=runtime)
        warm = repro.run("App-7", config, engine=runtime)
    assert canonical(cold) == serial_baselines["App-7"]
    assert canonical(warm) == serial_baselines["App-7"]
    assert warm.metrics.cache_hits == 2
