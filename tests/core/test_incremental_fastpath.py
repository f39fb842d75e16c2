"""Differential tests for the analysis fast path.

Two independent equivalence contracts, each against a reference from
``tests/oracles``:

* the production pipeline (indexed extraction, incremental encoder)
  must serialize byte-identically to the same pipeline running the
  references (all-pairs extraction, rebuild-from-scratch encoding) over
  full multi-round runs, and
* the indexed window extractor must return exactly the windows (same
  order, same sides) as the all-pairs scan on arbitrary logs.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import all_applications
from repro.core import SherlockConfig
from repro.core.encoder import IncrementalEncoder, build_model
from repro.core.pipeline import Sherlock
from repro.core.serialize import report_to_dict
from repro.core.stats import ObservationStore
from repro.core.windows import WindowExtractor
from repro.trace import OpType, TraceEvent, TraceLog
from tests.oracles import AllPairsWindowExtractor, reference_paths

APP_IDS = [app.app_id for app in all_applications()]


def _canonical(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


@pytest.mark.parametrize("app_id", APP_IDS)
def test_incremental_matches_rebuild_reports(app_id):
    """The production paths and the references serialize byte-identically
    over a full 3-round run — every round's objective, LP sizes, syncs
    and probabilities."""
    config = SherlockConfig(rounds=3)
    fast = Sherlock(_app(app_id), config).run()
    with reference_paths():
        slow = Sherlock(_app(app_id), config).run()
    assert _canonical(fast) == _canonical(slow)
    # The reference run really rebuilt: every round encoded the full LP.
    last = slow.rounds[-1].metrics
    assert last.lp_delta_variables == last.lp_variables


def _app(app_id):
    from repro.apps.registry import get_application

    return get_application(app_id)


def test_incremental_appends_instead_of_rebuilding():
    """After round 1 the encoder patches the model: subsequent rounds
    report delta sizes strictly below the full LP size."""
    report = Sherlock(_app(APP_IDS[-1]), SherlockConfig(rounds=3)).run()
    last = report.rounds[-1].metrics
    assert last.lp_delta_variables < last.lp_variables
    assert last.lp_delta_constraints < last.lp_constraints


def test_incremental_encoder_model_equals_build_model():
    """Direct model-level check: encoding a growing store incrementally
    yields the same variables, constraints and objective as build_model
    on the final store."""
    config = SherlockConfig(rounds=2)
    logs = []
    Sherlock(
        _app(APP_IDS[0]),
        config,
        round_listener=lambda i, execs: logs.append(
            [e.log for e in execs]
        ),
    ).run()
    extractor = WindowExtractor(near=config.near, window_cap=config.window_cap)
    store = ObservationStore()
    encoder = IncrementalEncoder(config)
    for round_logs in logs:
        for log in round_logs:
            store.ingest_run(log, extractor.extract(log))
        model, _ = encoder.encode(store)
    reference, _ = build_model(store, config)
    assert [v.name for v in model.variables] == [
        v.name for v in reference.variables
    ]
    assert len(model.constraints) == len(reference.constraints)
    assert {v.name: c for v, c in model.objective.terms.items()} == {
        v.name: c for v, c in reference.objective.terms.items()
    }


FIELDS = ["C::a", "C::b", "D::x"]
METHODS = ["C::m", "D::n"]


@st.composite
def mixed_logs(draw):
    """Random multi-thread traces mixing memory accesses and calls."""
    n = draw(st.integers(2, 40))
    log = TraceLog()
    t = 0.0
    open_calls = {1: [], 2: [], 3: []}
    for _ in range(n):
        t += draw(st.floats(0.001, 0.05))
        tid = draw(st.integers(1, 3))
        kind = draw(st.integers(0, 3))
        if kind == 2:
            log.append(
                TraceEvent(
                    timestamp=t,
                    thread_id=tid,
                    optype=OpType.ENTER,
                    name=draw(st.sampled_from(METHODS)),
                    address=0,
                )
            )
            open_calls[tid].append(log.events[-1].name)
        elif kind == 3 and open_calls[tid]:
            log.append(
                TraceEvent(
                    timestamp=t,
                    thread_id=tid,
                    optype=OpType.EXIT,
                    name=open_calls[tid].pop(),
                    address=0,
                )
            )
        else:
            log.append(
                TraceEvent(
                    timestamp=t,
                    thread_id=tid,
                    optype=draw(
                        st.sampled_from([OpType.READ, OpType.WRITE])
                    ),
                    name=draw(st.sampled_from(FIELDS)),
                    address=draw(st.integers(1, 2)),
                )
            )
    return log


def _window_key(w):
    return (
        w.pair_key,
        w.a_time,
        w.b_time,
        w.racy,
        tuple(w.release_side.items()),
        tuple(w.acquire_side.items()),
    )


@given(mixed_logs(), st.floats(0.01, 2.0), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_indexed_extraction_equals_allpairs(log, near, cap):
    """The indexed scan and the all-pairs oracle must produce identical
    windows — same order, same sides (key order included, since
    downstream float identity depends on it)."""
    indexed = WindowExtractor(near=near, window_cap=cap)
    allpairs = AllPairsWindowExtractor(near=near, window_cap=cap)
    wi = indexed.extract(log)
    wa = allpairs.extract(log)
    assert [_window_key(w) for w in wi] == [_window_key(w) for w in wa]


@given(mixed_logs(), st.floats(0.01, 1.0))
@settings(max_examples=40, deadline=None)
def test_indexed_extraction_equals_allpairs_with_refinement(log, near):
    indexed = WindowExtractor(near=near, window_cap=5, refine=True)
    allpairs = AllPairsWindowExtractor(near=near, window_cap=5, refine=True)
    assert [_window_key(w) for w in indexed.extract(log)] == [
        _window_key(w) for w in allpairs.extract(log)
    ]
