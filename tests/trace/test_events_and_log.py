"""Unit tests for the trace event model."""

import io

import pytest

from repro.trace import (
    CAPABLE_ROLES,
    DelayInterval,
    OpRef,
    OpType,
    Role,
    SyncOp,
    TraceEvent,
    TraceLog,
    begin_of,
    end_of,
    read_of,
    write_of,
)


def ev(t, tid, op, name, addr=1, **meta):
    return TraceEvent(
        timestamp=t, thread_id=tid, optype=op, name=name, address=addr,
        meta=meta,
    )


class TestOpRef:
    def test_class_and_member_split(self):
        ref = read_of("Namespace.Class::field")
        assert ref.class_name == "Namespace.Class"
        assert ref.member_name == "field"

    def test_member_without_class(self):
        ref = begin_of("bare")
        assert ref.class_name == "bare"
        assert ref.member_name == "bare"

    def test_display_formats(self):
        assert read_of("C::f").display() == "Read-C::f"
        assert write_of("C::f").display() == "Write-C::f"
        assert begin_of("C::m").display() == "C::m-Begin"
        assert end_of("C::m").display() == "C::m-End"

    def test_capabilities(self):
        assert read_of("C::f").can_play(Role.ACQUIRE)
        assert not read_of("C::f").can_play(Role.RELEASE)
        assert write_of("C::f").can_play(Role.RELEASE)
        assert not write_of("C::f").can_play(Role.ACQUIRE)
        assert begin_of("C::m").can_play(Role.ACQUIRE)
        assert end_of("C::m").can_play(Role.RELEASE)

    def test_capable_roles_table_is_total(self):
        assert set(CAPABLE_ROLES) == set(OpType)

    def test_sync_op_display(self):
        sync = SyncOp(read_of("C::f"), Role.ACQUIRE)
        assert "[acq]" in sync.display()

    def test_role_opposite(self):
        assert Role.ACQUIRE.opposite is Role.RELEASE
        assert Role.RELEASE.opposite is Role.ACQUIRE


class TestTraceEvent:
    def test_conflict_requires_different_threads(self):
        a = ev(0.1, 1, OpType.WRITE, "C::x")
        b = ev(0.2, 1, OpType.READ, "C::x")
        assert not a.conflicts_with(b)

    def test_conflict_requires_a_write(self):
        a = ev(0.1, 1, OpType.READ, "C::x")
        b = ev(0.2, 2, OpType.READ, "C::x")
        assert not a.conflicts_with(b)
        c = ev(0.3, 2, OpType.WRITE, "C::x")
        assert a.conflicts_with(c)

    def test_conflict_requires_same_field_and_address(self):
        a = ev(0.1, 1, OpType.WRITE, "C::x", addr=1)
        assert not a.conflicts_with(ev(0.2, 2, OpType.READ, "C::x", addr=2))
        assert not a.conflicts_with(ev(0.2, 2, OpType.READ, "C::y", addr=1))

    def test_round_trip_serialization(self):
        event = ev(0.5, 3, OpType.ENTER, "C::m", addr=9, library=True)
        back = TraceEvent.from_dict(event.to_dict())
        assert back.name == "C::m"
        assert back.optype is OpType.ENTER
        assert back.meta["library"] is True

    def test_ref_and_location(self):
        event = ev(0.5, 3, OpType.EXIT, "C::m")
        assert event.ref == OpRef("C::m", OpType.EXIT)
        assert event.location.name == "C::m"


class TestTraceLog:
    def make_log(self):
        log = TraceLog(run_id=2)
        log.append(ev(0.1, 1, OpType.ENTER, "C::m"))
        log.append(ev(0.2, 1, OpType.WRITE, "C::x"))
        log.append(ev(0.3, 2, OpType.READ, "C::x"))
        log.append(ev(0.4, 1, OpType.EXIT, "C::m"))
        return log

    def test_append_stamps_seq_and_run(self):
        log = self.make_log()
        assert [e.seq for e in log] == [0, 1, 2, 3]
        assert all(e.run_id == 2 for e in log)

    def test_append_keeps_a_stamped_event_and_restamps_others(self):
        log = TraceLog(run_id=3)
        stamped = TraceEvent(0.1, 1, OpType.WRITE, "C::x", 1, run_id=3, seq=0)
        assert log.append(stamped) is stamped
        # Stamped for another run, or at another position: re-stamped.
        foreign = TraceEvent(0.2, 1, OpType.READ, "C::x", 1, run_id=9, seq=1)
        misplaced = TraceEvent(0.3, 2, OpType.READ, "C::x", 1, run_id=3, seq=7)
        for event in (foreign, misplaced):
            stored = log.append(event)
            assert stored is not event
            assert stored == TraceEvent(
                event.timestamp, event.thread_id, event.optype, event.name,
                event.address, run_id=3, seq=log.events.index(stored),
            )
        assert [e.seq for e in log] == [0, 1, 2]
        assert all(e.run_id == 3 for e in log)
        assert log[0] is stamped

    def test_queries(self):
        log = self.make_log()
        assert log.threads() == (1, 2)
        assert len(log.memory_events()) == 2
        assert len(log.events_of(OpRef("C::x", OpType.WRITE))) == 1
        assert log.duration == pytest.approx(0.3)

    def test_between_is_exclusive(self):
        log = self.make_log()
        middle = log.between(0.1, 0.4)
        assert [e.name for e in middle] == ["C::x", "C::x"]
        only_t2 = log.between(0.1, 0.4, thread_id=2)
        assert len(only_t2) == 1

    def test_method_durations_pairs_enter_exit(self):
        log = self.make_log()
        durations = log.method_durations()
        assert durations["C::m"][0] == pytest.approx(0.3)

    def test_method_durations_prefers_local_time(self):
        log = TraceLog()
        log.append(
            TraceEvent(0.1, 1, OpType.ENTER, "C::m", 1, local_time=0.0)
        )
        log.append(
            TraceEvent(0.9, 1, OpType.EXIT, "C::m", 1, local_time=0.2)
        )
        assert log.method_durations()["C::m"][0] == pytest.approx(0.2)

    def test_jsonl_round_trip(self):
        log = self.make_log()
        log.add_delay(
            DelayInterval(1, 0.15, 0.25, OpRef("C::x", OpType.WRITE), 2)
        )
        buffer = io.StringIO()
        log.dump_jsonl(buffer)
        buffer.seek(0)
        loaded = TraceLog.load_jsonl(buffer)
        assert len(loaded) == len(log)
        assert loaded.run_id == 2
        assert len(loaded.delays) == 1
        assert loaded.delays[0].site == OpRef("C::x", OpType.WRITE)
        assert loaded.delays[0].duration == pytest.approx(0.1)

    def test_repr(self):
        assert "TraceLog" in repr(self.make_log())
