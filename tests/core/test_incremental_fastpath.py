"""Differential tests for the analysis fast path.

Three independent equivalence contracts, each against a reference from
``tests/oracles``:

* the production pipeline (indexed extraction, incremental encoder)
  must serialize byte-identically to the same pipeline running the
  references (all-pairs extraction, rebuild-from-scratch encoding) over
  full multi-round runs,
* the incremental encoder's model, and the one-off ``build_model``'s,
  must equal the reference construction's row by row after every
  round, and
* the indexed window extractor must return exactly the windows (same
  order, same sides) as the all-pairs scan on arbitrary logs.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import all_applications, app_ids, family_app_ids
from repro.core import TABLE5_ABLATIONS, SherlockConfig
from repro.core.encoder import IncrementalEncoder, build_model
from repro.core.pipeline import Sherlock
from repro.core.serialize import report_to_dict
from repro.core.windows import WindowExtractor
from repro.trace import OpType, TraceEvent, TraceLog
from tests.oracles import AllPairsWindowExtractor, reference_paths
from tests.oracles.encoder import build_model as reference_build_model

APP_IDS = [app.app_id for app in all_applications()]
PAPER_APP_IDS = app_ids() + family_app_ids()


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


def _rows(model):
    """Everything the LP is made of, in order, with floats as hex so
    equality is bit-for-bit (the sign of zero included)."""

    def terms(expr):
        return [(v.name, c.hex()) for v, c in expr.terms.items()]

    return (
        [(v.name, v.lower, v.upper) for v in model.variables],
        [
            (c.name, c.sense, terms(c.expr), c.expr.constant.hex())
            for c in model.constraints
        ],
        terms(model.objective),
        model.objective.constant.hex(),
    )


def test_incremental_encoder_model_equals_build_model(monkeypatch):
    """Row by row, every round: the production encoder's model and the
    one-off ``build_model``'s each equal the reference's from-scratch
    ``LinExpr`` construction over the same
    store — variable names and bounds, constraint names, senses, term
    order, coefficients and constants, objective order and values — on
    App-1..App-10 under every Table-5 config, 3 rounds each."""
    import repro.core.pipeline as pipeline

    snapshots = []

    class CheckedEncoder(IncrementalEncoder):
        def encode(self, store):
            model, registry = super().encode(store)
            one_off, _ = build_model(store, self.config)
            reference, _ = reference_build_model(store, self.config)
            snapshots.append(
                (
                    self.last_rebuild,
                    _rows(model),
                    _rows(one_off),
                    _rows(reference),
                )
            )
            return model, registry

    monkeypatch.setattr(pipeline, "IncrementalEncoder", CheckedEncoder)
    appended = 0
    for app_id in PAPER_APP_IDS:
        for label, changes in TABLE5_ABLATIONS.items():
            snapshots.clear()
            Sherlock(_app(app_id), SherlockConfig(rounds=3, **changes)).run()
            assert len(snapshots) == 3
            for round_index, (rebuilt, fast, one_off, slow) in enumerate(
                snapshots
            ):
                assert fast == slow, (app_id, label, round_index)
                assert one_off == slow, (app_id, label, round_index)
                appended += not rebuilt
    # Rounds 2 and 3 mostly append rather than rebuild.
    assert appended >= len(PAPER_APP_IDS) * len(TABLE5_ABLATIONS)


FIELDS = ["C::a", "C::b", "D::x"]
METHODS = ["C::m", "D::n"]
#: Thread-unsafe library APIs: their conflict groups are keyed by the
#: receiver's address alone, so several names share one group.
UNSAFE_APIS = ["Lib::Add", "Lib::Get"]


@st.composite
def mixed_logs(draw):
    """Random multi-thread traces mixing memory accesses and calls.

    Besides single events they hold bursts (runs of one thread's
    accesses, which the window scan jumps over) and calls of
    thread-unsafe APIs whose ``unsafe_api`` kind mixes ``read`` and
    ``write`` under one name (conflict groups with several kinds).
    """
    n = draw(st.integers(2, 40))
    log = TraceLog()
    t = 0.0
    open_calls = {1: [], 2: [], 3: []}

    def access(tid):
        log.append(
            TraceEvent(
                timestamp=t,
                thread_id=tid,
                optype=draw(st.sampled_from([OpType.READ, OpType.WRITE])),
                name=draw(st.sampled_from(FIELDS)),
                address=draw(st.integers(1, 2)),
            )
        )

    for _ in range(n):
        t += draw(st.floats(0.001, 0.05))
        tid = draw(st.integers(1, 3))
        kind = draw(st.integers(0, 5))
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
        elif kind == 4:
            log.append(
                TraceEvent(
                    timestamp=t,
                    thread_id=tid,
                    optype=OpType.ENTER,
                    name=draw(st.sampled_from(UNSAFE_APIS)),
                    address=draw(st.integers(1, 2)),
                    meta={"unsafe_api": draw(st.sampled_from(["read", "write"]))},
                )
            )
        elif kind == 5:
            for _ in range(draw(st.integers(2, 6))):
                access(tid)
                t += draw(st.floats(0.001, 0.01))
        else:
            access(tid)
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


@given(
    mixed_logs(),
    st.floats(0.01, 2.0),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_indexed_extraction_equals_allpairs_saturated_caps(
    log, near, cap, api_list, refine
):
    """Caps of 1-3 saturate within a few windows, so the scan's
    capped-endpoint skip fires often; bursts exercise its same-thread
    jump.  Windows stay exactly the all-pairs oracle's, with and
    without the unsafe-API list."""
    kwargs = dict(
        near=near, window_cap=cap, use_unsafe_api_list=api_list, refine=refine
    )
    indexed = WindowExtractor(**kwargs).extract(log)
    allpairs = AllPairsWindowExtractor(**kwargs).extract(log)
    assert [_window_key(w) for w in indexed] == [
        _window_key(w) for w in allpairs
    ]


@pytest.mark.parametrize("cap", [2, 15])
def test_indexed_extraction_equals_allpairs_on_scale_log(cap):
    """One unit test's log of the scale benchmark's synthetic app, with
    the app's true releases delayed so refinement runs too."""
    from repro.apps.synth import SynthSpec, build_synth_app
    from repro.core.observer import Observer
    from repro.trace import Role

    app = build_synth_app(
        SynthSpec(app_id="Bench-Scale", pairs=4, fields_per_pair=16, episodes=8)
    )
    plan = {
        sync.op: 0.1
        for sync in app.ground_truth.syncs
        if sync.role is Role.RELEASE
    }
    log = Observer(SherlockConfig()).observe_round(app, 1, plan)[0].log
    assert log.delays
    indexed = WindowExtractor(near=1.0, window_cap=cap).extract(log)
    allpairs = AllPairsWindowExtractor(near=1.0, window_cap=cap).extract(log)
    assert any(w.refined for w in indexed)
    assert [_window_key(w) for w in indexed] == [
        _window_key(w) for w in allpairs
    ]
