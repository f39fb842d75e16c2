"""Tests for the unified ``repro.run()`` entry point, config
construction-time validation, and report metrics."""

import pytest

import repro
from repro.api import coerce_cache
from repro.apps.registry import get_application
from repro.core import SherlockConfig
from repro.runtime import RunMetrics, TraceCache
from repro.runtime.cache import DEFAULT_CACHE_DIR


class TestRunEntryPoint:
    def test_accepts_app_id_string(self):
        report = repro.run("App-5", SherlockConfig(rounds=1, seed=0))
        assert report.app_id == "App-5"
        assert len(report.rounds) == 1

    def test_accepts_application_instance(self):
        app = get_application("App-5")
        report = repro.run(app, SherlockConfig(rounds=1, seed=0))
        assert report.app_id == "App-5"

    def test_unknown_app_id_raises(self):
        with pytest.raises(KeyError):
            repro.run("App-99")

    def test_rounds_override_reflected_in_report_config(self):
        report = repro.run(
            "App-5", SherlockConfig(rounds=3, seed=0), rounds=1
        )
        assert len(report.rounds) == 1
        assert report.config.rounds == 1

    def test_sherlock_rounds_override_reflected_in_report_config(self):
        app = get_application("App-5")
        sherlock = repro.Sherlock(app, SherlockConfig(rounds=3, seed=0))
        report = sherlock.run(rounds=2)
        assert len(report.rounds) == 2
        assert report.config.rounds == 2
        assert sherlock.config.rounds == 3  # caller's config untouched

    def test_coerce_cache_variants(self, tmp_path):
        assert coerce_cache(None) is None
        assert coerce_cache(False) is None
        assert coerce_cache(True).path == DEFAULT_CACHE_DIR
        assert coerce_cache(tmp_path).path == str(tmp_path)
        cache = TraceCache()
        assert coerce_cache(cache) is cache

    def test_coerce_cache_memory_is_lru_only(self):
        cache = coerce_cache("memory")
        assert isinstance(cache, TraceCache)
        assert cache.path is None


class TestConfigConstructionValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"near": 0.0},
            {"window_cap": 0},
            {"lam": -1.0},
            {"threshold": 1.5},
            {"rounds": 0},
            {"delay": -0.1},
        ],
    )
    def test_invalid_fields_fail_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            SherlockConfig(**kwargs)

    def test_without_revalidates(self):
        config = SherlockConfig()
        with pytest.raises(ValueError):
            config.without(rounds=0)


class TestReportMetrics:
    @pytest.fixture(scope="class")
    def report(self):
        return repro.run("App-7", SherlockConfig(rounds=2, seed=0))

    def test_each_round_carries_metrics(self, report):
        for round_result in report.rounds:
            assert isinstance(round_result.metrics, RunMetrics)
            assert round_result.metrics.tests_executed > 0

    def test_aggregate_sums_rounds(self, report):
        total = report.metrics
        assert total.tests_executed == sum(
            r.metrics.tests_executed for r in report.rounds
        )
        assert total.events_observed == sum(
            r.metrics.events_observed for r in report.rounds
        )
        assert total.cache_misses == len(report.rounds)
        assert total.lp_variables == max(
            r.metrics.lp_variables for r in report.rounds
        )
        assert total.total_s > 0.0

    def test_describe_mentions_cache_and_phases(self, report):
        text = report.metrics.describe()
        assert "cache:" in text and "phases:" in text and "lp:" in text

    def test_report_describe_computes_stats_once(self, report, monkeypatch):
        calls = {"n": 0}
        real_stats = report.store.stats

        def counting_stats():
            calls["n"] += 1
            return real_stats()

        monkeypatch.setattr(report.store, "stats", counting_stats)
        text = report.describe()
        assert "App-7" in text
        assert calls["n"] == 1
