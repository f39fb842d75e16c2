"""Property tests for witness reorderings over generated traces.

Hypothesis generates small multi-threaded traces mixing plain and
volatile field accesses (volatile writes release, volatile reads
acquire — the channel-pairing machinery the closure is built on).  For
every predicted conflicting pair, the constructed witness must:

* be a (sub-)permutation of the original events — an injective mapping
  back to source events with identical content;
* preserve per-thread program order, as a program-order-closed prefix
  of each thread's original sequence;
* pair each acquire with the same release (and each post-publish access
  with the same static publish) as the source trace;
* end with the predicted pair as its final two, conflicting, events.

The role classifier (``HappensBeforeSpec.event_roles``) the closure and
``sync_pairings`` read instead of the spec's predicates is pinned to
those predicates on generated traces with every role kind and on every
app's run, and is rebuilt per pass, so a spec mutated between passes is
seen at once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import app_ids, family_app_ids, get_application
from repro.predict import (
    SyncPreservingClosure,
    WITNESS_OF,
    build_witness,
    sync_pairings,
    validate_witness,
)
from repro.racedet import HappensBeforeSpec, manual_spec
from repro.sim.runner import RunOptions, run_application
from repro.trace.events import TraceEvent
from repro.trace.log import TraceLog
from repro.trace.optypes import OpRef, OpType

VOLATILE = "Gen.Obj::flag"
PLAIN = ("Gen.Obj::data", "Gen.Obj::count")

SPEC = HappensBeforeSpec(name="gen", volatile_fields={VOLATILE})

#: One trace step: (thread, field, is_write, address choice).
_step = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.sampled_from((VOLATILE,) + PLAIN),
    st.booleans(),
    st.integers(min_value=0, max_value=1),
)

traces = st.lists(_step, min_size=2, max_size=28)


def _build_log(steps):
    log = TraceLog(run_id=0)
    local = {}
    for i, (tid, name, is_write, addr) in enumerate(steps):
        local[tid] = local.get(tid, 0.0) + 0.25
        log.append(TraceEvent(
            timestamp=(i + 1) * 0.5,
            thread_id=tid,
            optype=OpType.WRITE if is_write else OpType.READ,
            name=name,
            address=1000 + addr,
            local_time=local[tid],
        ))
    return log


def _predicted_witnesses(steps):
    """All (log, a, b, witness) for predicted pairs of a generated log."""
    log = _build_log(steps)
    closure = SyncPreservingClosure(log, SPEC)
    out = []
    events = log.memory_events()
    for j in range(len(events)):
        for i in range(j):
            a, b = events[i], events[j]
            if not a.conflicts_with(b):
                continue
            ideal = closure.predicts(a.seq, b.seq)
            if ideal is None:
                continue
            witness = build_witness(
                log, SPEC, closure, a.seq, b.seq, ideal
            )
            if witness is not None:
                out.append((log, a.seq, b.seq, witness))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(traces)
def test_witness_is_injective_subpermutation(steps):
    for log, _, _, witness in _predicted_witnesses(steps):
        origins = [e.meta[WITNESS_OF] for e in witness.events]
        assert len(set(origins)) == len(origins)
        for event, origin in zip(witness.events, origins):
            source = log[origin]
            assert (
                event.thread_id, event.optype, event.name, event.address
            ) == (
                source.thread_id, source.optype, source.name,
                source.address,
            )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(traces)
def test_witness_preserves_program_order(steps):
    for log, _, _, witness in _predicted_witnesses(steps):
        kept = {}
        for event in witness.events:
            kept.setdefault(event.thread_id, []).append(
                event.meta[WITNESS_OF]
            )
        for tid, seqs in kept.items():
            original = [
                e.seq for e in log.events if e.thread_id == tid
            ]
            # A program-order-closed prefix, in order: the witness keeps
            # exactly the first len(seqs) events of the thread.
            assert seqs == original[: len(seqs)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(traces)
def test_witness_keeps_source_sync_pairings(steps):
    for log, _, _, witness in _predicted_witnesses(steps):
        seq_of = {id(e): e.meta[WITNESS_OF] for e in witness.events}
        original = sync_pairings(log.events, SPEC)
        reordered = sync_pairings(witness.events, SPEC, seq_of=seq_of)
        for acquire, release in reordered.acquires.items():
            assert original.acquires[acquire] == release
        for access, publish in reordered.statics.items():
            assert original.statics[access] == publish


@settings(max_examples=60, deadline=None, derandomize=True)
@given(traces)
def test_witness_ends_with_the_racy_pair_and_validates(steps):
    for log, a_seq, b_seq, witness in _predicted_witnesses(steps):
        assert len(witness) >= 2
        tail = witness.events[-2:]
        assert {e.meta[WITNESS_OF] for e in tail} == {a_seq, b_seq}
        assert tail[0].conflicts_with(tail[1])
        assert validate_witness(log, witness, SPEC, a_seq, b_seq) == []


# -- the role classifier -------------------------------------------------------

METHODS = ("Gen.Lock::Enter", "Gen.Lock::Exit", "Gen.Phase::Arrive",
           "Gen.Obj::.cctor")

#: Every role a spec can give an event: delegate/begin acquires (and the
#: EXIT join of the same method), releases, a collective release, a
#: static-init publish, and volatile field accesses.
ROLE_SPEC = HappensBeforeSpec(
    name="roles",
    acquires={OpRef("Gen.Lock::Enter", OpType.ENTER)},
    releases={
        OpRef("Gen.Lock::Exit", OpType.EXIT),
        OpRef("Gen.Phase::Arrive", OpType.EXIT),
    },
    volatile_fields={VOLATILE},
    static_init_methods={"Gen.Obj::.cctor"},
    collective_releases={"Gen.Phase::Arrive"},
)

#: One trace step with any op type: (thread, name, optype, address).
_role_step = st.one_of(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.sampled_from((VOLATILE,) + PLAIN),
        st.sampled_from((OpType.READ, OpType.WRITE)),
        st.integers(min_value=0, max_value=1),
    ),
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.sampled_from(METHODS),
        st.sampled_from((OpType.ENTER, OpType.EXIT)),
        st.integers(min_value=0, max_value=1),
    ),
)


def _spec_predicates(spec, event):
    return (
        spec.is_acquire_event(event),
        spec.is_release_event(event),
        spec.is_collective_release_event(event),
        spec.is_static_publish_event(event),
    )


def _assert_roles_match_spec(log, spec):
    roles = spec.event_roles()
    closure = SyncPreservingClosure(log, spec)
    for e in log.events:
        expected = _spec_predicates(spec, e)
        assert tuple(roles(e)) == expected, e
        assert closure.releases[e.seq] == expected[1], e
        assert closure.publishes[e.seq] == expected[3], e


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(_role_step, min_size=1, max_size=30))
def test_roles_match_spec_predicates_on_generated_traces(steps):
    log = TraceLog(run_id=0)
    for i, (tid, name, optype, addr) in enumerate(steps):
        log.append(TraceEvent(
            timestamp=(i + 1) * 0.5, thread_id=tid, optype=optype,
            name=name, address=1000 + addr,
        ))
    for spec in (SPEC, ROLE_SPEC):
        _assert_roles_match_spec(log, spec)


@pytest.mark.parametrize("app_id", app_ids() + family_app_ids())
def test_roles_match_spec_predicates_on_app_traces(app_id):
    """Every app's manual spec on one run, App-10's phaser collective
    releases included."""
    app = get_application(app_id)
    spec = manual_spec(app)
    collective = 0
    for execution in run_application(app, RunOptions(seed=0, run_id=0)):
        _assert_roles_match_spec(execution.log, spec)
        collective += sum(
            spec.is_collective_release_event(e) for e in execution.log
        )
    if app_id == "App-10":
        assert collective > 0


def test_mutated_spec_gives_the_next_pass_new_roles():
    """A spec grown between passes (as ``from_syncs`` grows its own) is
    never served the previous pass's roles."""
    log = _build_log([
        (1, "Gen.Obj::data", True, 0),   # 0: write
        (2, "Gen.Obj::data", False, 0),  # 1: read
    ])
    spec = HappensBeforeSpec(name="grown")
    first = sync_pairings(log.events, spec)
    assert first.acquires == {}
    spec.releases.add(OpRef("Gen.Obj::data", OpType.WRITE))
    spec.acquires.add(OpRef("Gen.Obj::data", OpType.READ))
    second = sync_pairings(log.events, spec)
    assert second.acquires == {1: 0}
    spec.static_init_methods.add("Gen.Obj::data")  # never an EXIT
    spec.volatile_fields.add("Gen.Obj::data")
    assert sync_pairings(log.events, spec) == second
    spec.releases.clear()
    spec.volatile_fields.clear()
    assert sync_pairings(log.events, spec).acquires == {1: None}
