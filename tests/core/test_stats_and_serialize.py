"""Unit tests for the observation store and report serialization."""

import io

import pytest

from repro.core import ObservationStore, Sherlock, SherlockConfig
from repro.core.serialize import (
    dump_report,
    load_syncs,
    report_to_dict,
    sync_from_dict,
)
from repro.core.stats import MethodStats
from repro.core.windows import Window
from repro.trace import (
    OpType,
    Role,
    SyncOp,
    TraceEvent,
    TraceLog,
    begin_of,
    read_of,
    write_of,
)


def ev(t, tid, op, name, addr=1, **meta):
    return TraceEvent(
        timestamp=t, thread_id=tid, optype=op, name=name, address=addr,
        meta=meta,
    )


class TestMethodStats:
    def test_cv_requires_two_samples(self):
        stats = MethodStats()
        stats.add(1.0)
        assert stats.coefficient_of_variation() is None
        stats.add(3.0)
        assert stats.coefficient_of_variation() == pytest.approx(0.5)

    def test_cv_zero_mean_is_none(self):
        stats = MethodStats()
        stats.add(0.0)
        stats.add(0.0)
        assert stats.coefficient_of_variation() is None


class TestObservationStore:
    def _window(self, racy=False):
        w = Window(
            pair_key=(write_of("C::x"), read_of("C::x")),
            run_id=0, a_time=0.0, b_time=1.0, racy=racy,
        )
        w.release_side[write_of("C::x")] = 2
        w.acquire_side[read_of("C::x")] = 1
        return w

    def test_ingest_accumulates(self):
        store = ObservationStore()
        store.ingest_run(TraceLog(), [self._window()])
        store.ingest_run(TraceLog(), [self._window()])
        assert len(store.windows) == 2
        assert store.runs_ingested == 2

    def test_racy_pairs_tracked(self):
        store = ObservationStore()
        store.ingest_run(TraceLog(), [self._window(racy=True)])
        assert store.racy_pairs == {(write_of("C::x"), read_of("C::x"))}

    def test_library_names_from_events(self):
        store = ObservationStore()
        log = TraceLog()
        log.append(ev(0.1, 1, OpType.ENTER, "Lib::Api", library=True))
        log.append(ev(0.2, 1, OpType.WRITE, "C::x"))
        store.ingest_run(log, [])
        assert store.library_names == {"Lib::Api"}

    def test_average_occurrence_per_side(self):
        store = ObservationStore()
        store.ingest_run(TraceLog(), [self._window(), self._window()])
        rel_avg, acq_avg = store.average_occurrence()
        assert rel_avg[write_of("C::x")] == pytest.approx(2.0)
        assert acq_avg[read_of("C::x")] == pytest.approx(1.0)

    def test_duration_samples_from_log(self):
        store = ObservationStore()
        log = TraceLog()
        log.append(ev(0.1, 1, OpType.ENTER, "C::m"))
        log.append(ev(0.3, 1, OpType.EXIT, "C::m"))
        log.append(ev(0.4, 1, OpType.ENTER, "C::m"))
        log.append(ev(0.5, 1, OpType.EXIT, "C::m"))
        store.ingest_run(log, [])
        assert store.method_stats["C::m"].count == 2
        pcts = store.cv_percentiles()
        assert "C::m" in pcts

    def test_cv_percentiles_skip_single_samples(self):
        store = ObservationStore()
        log = TraceLog()
        log.append(ev(0.1, 1, OpType.ENTER, "C::once"))
        log.append(ev(0.2, 1, OpType.EXIT, "C::once"))
        store.ingest_run(log, [])
        assert "C::once" not in store.cv_percentiles()

    def test_repr_and_stats(self):
        store = ObservationStore()
        assert store.stats()["windows"] == 0
        assert "ObservationStore" in repr(store)


class TestSerialization:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.apps.registry import get_application

        app = get_application("App-2")
        return Sherlock(app, SherlockConfig(rounds=2, seed=0)).run()

    def test_report_round_trip(self, report):
        buffer = io.StringIO()
        dump_report(report, buffer)
        buffer.seek(0)
        syncs = load_syncs(buffer)
        assert syncs == set(report.final.syncs)

    def test_report_dict_shape(self, report):
        data = report_to_dict(report)
        assert data["app_id"] == "App-2"
        assert data["config"]["lam"] == pytest.approx(0.2)
        assert len(data["rounds"]) == 2
        assert data["rounds"][-1]["inference"]["syncs"]

    def test_sync_from_dict(self):
        sync = SyncOp(begin_of("C::m"), Role.ACQUIRE)
        round_tripped = sync_from_dict(
            {"name": "C::m", "op": "enter", "role": "acq"}
        )
        assert round_tripped == sync
