"""The metrics recorder: ``count`` / ``timed`` / ``recording`` scoping,
the per-field aggregation ``merge`` applies, and the ``--stats`` view."""

from dataclasses import fields

import pytest

from repro.metrics import RunMetrics, count, recording, timed

#: Fields that aggregate by keeping the largest value; all others sum.
PEAK_FIELDS = {
    "lp_variables",
    "lp_constraints",
    "workers",
    "engine_concurrency_hwm",
}


def test_count_outside_recording_is_a_noop():
    count("lp_pivots", 5)
    with timed("encode_s"):
        pass
    # Nothing was kept anywhere: a recording opened afterwards starts
    # from a clean slate.
    with recording() as metrics:
        pass
    assert metrics == RunMetrics()


def test_count_adds_into_the_active_recording():
    with recording() as metrics:
        count("lp_pivots", 2)
        count("lp_pivots", 3)
        count("cache_hits")
        count("lp_variables", 7)
        count("lp_variables", 4)
        with timed("solve_s"):
            pass
    assert metrics.lp_pivots == 5
    assert metrics.cache_hits == 1
    assert metrics.lp_variables == 7
    assert metrics.solve_s > 0.0


def test_nested_recording_is_isolated_and_restores_the_outer():
    with recording() as outer:
        count("lp_pivots", 1)
        with recording() as inner:
            count("lp_pivots", 10)
        count("lp_pivots", 100)
    assert inner.lp_pivots == 10
    assert outer.lp_pivots == 101


def test_nested_recording_restores_the_outer_on_exception():
    with recording() as outer:
        with pytest.raises(RuntimeError):
            with recording() as inner:
                count("tests_executed", 3)
                raise RuntimeError("boom")
        count("tests_executed", 1)
    assert inner.tests_executed == 3
    assert outer.tests_executed == 1
    count("tests_executed", 1000)  # no recording left open
    assert outer.tests_executed == 1


def test_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown metric"):
        count("lp_pivot", 1)
    with recording():
        with pytest.raises(ValueError, match="unknown metric"):
            count("no_such_counter")


def test_merge_applies_each_fields_declared_aggregation():
    a = RunMetrics(**{f.name: 3 for f in fields(RunMetrics)})
    b = RunMetrics(**{f.name: 5 for f in fields(RunMetrics)})
    a.merge(b)
    for f in fields(RunMetrics):
        expected = 5 if f.name in PEAK_FIELDS else 8
        assert getattr(a, f.name) == expected, f.name


def test_aggregate_over_rounds():
    rounds = [
        RunMetrics(lp_pivots=2, lp_variables=10, workers=2),
        RunMetrics(lp_pivots=3, lp_variables=30, workers=1),
    ]
    total = RunMetrics.aggregate(rounds)
    assert total.lp_pivots == 5
    assert total.lp_variables == 30
    assert total.workers == 2


def test_describe_shows_every_field():
    """A counter cannot be added without its ``--stats`` line: every
    field, set to a distinct sentinel, appears in ``describe()``."""
    sentinels = {}
    for i, f in enumerate(fields(RunMetrics)):
        value = 50000 + i
        sentinels[f.name] = (
            value + 0.25 if isinstance(f.default, float) else value
        )
    text = RunMetrics(**sentinels).describe()
    for name, value in sentinels.items():
        shown = f"{value:.3f}" if isinstance(value, float) else str(value)
        assert shown in text, name
