"""The witness validator is not weakened by its per-log shortcut.

``validate_witness`` may be handed the source log's view — its pairings
(``source_pairings``) and per-thread order (``source_order``), derived
once per log by the detector — instead of re-deriving them per witness.  These tests corrupt validated witnesses
and require the same rejection from both call forms, and require both
forms to agree on every witness of the registered apps.
"""

import pytest

from repro.apps.registry import app_ids, family_app_ids, get_application
from repro.predict import (
    PredictiveDetector,
    SyncPreservingClosure,
    WITNESS_OF,
    build_witness,
    sync_pairings,
    validate_witness,
)
from repro.predict.witness import program_order
from repro.racedet import HappensBeforeSpec, manual_spec
from repro.sim.runner import RunOptions, run_application
from repro.trace.events import TraceEvent
from repro.trace.log import TraceLog
from repro.trace.optypes import OpType

FLAG = "Gen.Obj::flag"
DATA = "Gen.Obj::data"
SPEC = HappensBeforeSpec(name="gen", volatile_fields={FLAG})


def _log(steps):
    log = TraceLog(run_id=0)
    for i, (tid, optype, name) in enumerate(steps):
        log.append(TraceEvent(
            timestamp=(i + 1) * 0.5, thread_id=tid, optype=optype,
            name=name, address=1000, local_time=(i + 1) * 0.25,
        ))
    return log


def _reorder(witness, order):
    """The witness with its events in ``order`` (positions), re-stamped
    onto the same uniform grid."""
    out = TraceLog(run_id=witness.run_id)
    step = witness.events[1].timestamp - witness.events[0].timestamp
    for position, index in enumerate(order):
        e = witness.events[index]
        out.append(TraceEvent(
            timestamp=position * step, thread_id=e.thread_id,
            optype=e.optype, name=e.name, address=e.address,
            local_time=e.local_time, meta=dict(e.meta),
        ))
    return out


def _both_forms(log, witness, spec, a_seq, b_seq):
    """Problems from the standalone call and from the detector's form."""
    standalone = validate_witness(log, witness, spec, a_seq, b_seq)
    shared = validate_witness(
        log, witness, spec, a_seq, b_seq,
        source_pairings=sync_pairings(log.events, spec),
        source_order=program_order(log.events),
    )
    return standalone, shared


@pytest.fixture
def channel_witness():
    """Two releases on one volatile channel, then an acquire pairing
    with the second, then the racy pair on ``data``."""
    log = _log([
        (1, OpType.WRITE, FLAG),   # 0: release r1
        (2, OpType.WRITE, FLAG),   # 1: release r2
        (3, OpType.READ, FLAG),    # 2: acquire, pairs with r2
        (3, OpType.WRITE, DATA),   # 3: racy access
        (1, OpType.WRITE, DATA),   # 4: racy access
    ])
    closure = SyncPreservingClosure(log, SPEC)
    ideal = closure.predicts(3, 4)
    assert ideal is not None
    witness = build_witness(log, SPEC, closure, 3, 4, ideal)
    assert witness is not None
    assert _both_forms(log, witness, SPEC, 3, 4) == ([], [])
    return log, witness


def test_swapped_releases_re_pair_the_acquire(channel_witness):
    log, witness = channel_witness
    origins = [e.meta[WITNESS_OF] for e in witness.events]
    r1, r2 = origins.index(0), origins.index(1)
    assert r1 < r2 < origins.index(2)
    order = list(range(len(witness)))
    order[r1], order[r2] = order[r2], order[r1]
    mutated = _reorder(witness, order)
    for problems in _both_forms(log, mutated, SPEC, 3, 4):
        assert any("re-paired" in p for p in problems), problems
        assert "acquire at original seq 2 re-paired (1 -> 0)" in problems


def test_tail_event_moved_forward(channel_witness):
    log, witness = channel_witness
    n = len(witness)
    order = list(range(n - 3)) + [n - 2, n - 3, n - 1]
    mutated = _reorder(witness, order)
    for problems in _both_forms(log, mutated, SPEC, 3, 4):
        assert (
            "racy pair is not the witness's final two events" in problems
        ), problems


def test_same_thread_events_swapped(channel_witness):
    log, witness = channel_witness
    origins = [e.meta[WITNESS_OF] for e in witness.events]
    first, second = origins.index(2), origins.index(3)  # both thread 3
    order = list(range(len(witness)))
    order[first], order[second] = order[second], order[first]
    mutated = _reorder(witness, order)
    for problems in _both_forms(log, mutated, SPEC, 3, 4):
        assert (
            "thread 3 order is not a program-order-closed prefix of the "
            "original trace" in problems
        ), problems


def test_program_order_lists_each_threads_seqs():
    log = _log([
        (1, OpType.WRITE, FLAG),
        (2, OpType.WRITE, FLAG),
        (1, OpType.READ, FLAG),
        (3, OpType.WRITE, DATA),
        (2, OpType.READ, DATA),
    ])
    assert program_order(log.events) == {1: [0, 2], 2: [1, 4], 3: [3]}


def _corruptions(witness):
    """The witness plus copies with adjacent events swapped at its head
    and tail: each breaks some check on most witnesses."""
    n = len(witness)
    yield witness
    if n >= 3:
        yield _reorder(witness, [1, 0] + list(range(2, n)))
        yield _reorder(witness, list(range(n - 3)) + [n - 2, n - 3, n - 1])


@pytest.mark.parametrize("app_id", app_ids() + family_app_ids())
def test_both_call_forms_agree_on_every_witness(app_id):
    app = get_application(app_id)
    spec = manual_spec(app)
    detector = PredictiveDetector(spec)
    rejected = 0
    for execution in run_application(app, RunOptions(seed=0, run_id=0)):
        log = execution.log
        source = sync_pairings(log.events, spec)
        order = program_order(log.events)
        for race in detector.analyze(log).races:
            for witness in _corruptions(race.witness):
                standalone = validate_witness(
                    log, witness, spec, race.a_seq, race.b_seq
                )
                shared = validate_witness(
                    log, witness, spec, race.a_seq, race.b_seq,
                    source_pairings=source,
                    source_order=order,
                )
                assert standalone == shared
                rejected += bool(standalone)
    assert rejected > 0
