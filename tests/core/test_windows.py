"""Unit tests for acquire/release window extraction and refinement."""

import pytest

from repro.core.windows import WindowExtractor
from repro.trace import DelayInterval, OpRef, OpType, TraceEvent, TraceLog
from tests.oracles import AllPairsWindowExtractor


def ev(t, tid, op, name, addr=1, **meta):
    return TraceEvent(
        timestamp=t, thread_id=tid, optype=op, name=name, address=addr,
        meta=meta,
    )


def build_log(events, delays=()):
    log = TraceLog(run_id=0)
    for e in sorted(events, key=lambda e: e.timestamp):
        log.append(e)
    for d in delays:
        log.add_delay(d)
    return log


W, R, EN, EX = OpType.WRITE, OpType.READ, OpType.ENTER, OpType.EXIT


def test_basic_conflicting_pair_forms_window():
    log = build_log([
        ev(0.10, 1, W, "C::x"),
        ev(0.12, 1, EX, "C::Release"),
        ev(0.15, 2, EN, "C::Acquire"),
        ev(0.20, 2, R, "C::x"),
    ])
    windows = WindowExtractor(near=1.0, window_cap=15).extract(log)
    assert len(windows) == 1
    w = windows[0]
    assert w.pair_key == (OpRef("C::x", W), OpRef("C::x", R))
    # Endpoints included: the write is a release candidate, the read an
    # acquire candidate.
    assert OpRef("C::x", W) in w.release_side
    assert OpRef("C::Release", EX) in w.release_side
    assert OpRef("C::x", R) in w.acquire_side
    assert OpRef("C::Acquire", EN) in w.acquire_side
    assert not w.racy


def test_same_thread_accesses_do_not_conflict():
    log = build_log([
        ev(0.1, 1, W, "C::x"),
        ev(0.2, 1, R, "C::x"),
    ])
    assert WindowExtractor(1.0, 15).extract(log) == []


def test_different_address_does_not_conflict():
    log = build_log([
        ev(0.1, 1, W, "C::x", addr=1),
        ev(0.2, 2, R, "C::x", addr=2),
    ])
    assert WindowExtractor(1.0, 15).extract(log) == []


def test_read_read_does_not_conflict():
    log = build_log([
        ev(0.1, 1, R, "C::x"),
        ev(0.2, 2, R, "C::x"),
    ])
    assert WindowExtractor(1.0, 15).extract(log) == []


def test_near_filter_excludes_distant_pairs():
    log = build_log([
        ev(0.1, 1, W, "C::x"),
        ev(5.0, 2, R, "C::x"),
    ])
    assert WindowExtractor(near=1.0, window_cap=15).extract(log) == []
    assert len(WindowExtractor(near=10.0, window_cap=15).extract(log)) == 1


def test_window_cap_limits_per_location_pair():
    events = []
    t = 0.0
    for i in range(40):
        events.append(ev(t, 1, W, "C::x"))
        events.append(ev(t + 0.001, 2, R, "C::x"))
        t += 0.01
    log = build_log(events)
    windows = WindowExtractor(near=0.005, window_cap=15).extract(log)
    assert len(windows) == 15


def test_write_write_with_empty_windows_is_racy():
    log = build_log([
        ev(0.1, 1, W, "C::x"),
        ev(0.2, 2, W, "C::x"),
    ])
    windows = WindowExtractor(1.0, 15).extract(log)
    assert len(windows) == 1
    # Release side has the write endpoint (capable) but the acquire side
    # only has a write — provably no acquire: a data race.
    assert windows[0].racy


def test_read_then_write_with_nothing_between_is_racy():
    log = build_log([
        ev(0.1, 1, R, "C::x"),
        ev(0.2, 2, W, "C::x"),
    ])
    windows = WindowExtractor(1.0, 15).extract(log)
    assert windows[0].racy


def test_write_then_read_flag_pair_is_not_racy():
    log = build_log([
        ev(0.1, 1, W, "C::flag"),
        ev(0.2, 2, R, "C::flag"),
    ])
    windows = WindowExtractor(1.0, 15).extract(log)
    assert not windows[0].racy


def test_unsafe_api_calls_form_conflicting_pairs():
    log = build_log([
        ev(0.1, 1, EN, "List::Add", addr=9, unsafe_api="write"),
        ev(0.11, 1, EX, "List::Add", addr=9, unsafe_api="write"),
        ev(0.2, 2, EN, "List::Contains", addr=9, unsafe_api="read"),
    ])
    windows = WindowExtractor(1.0, 15).extract(log)
    assert len(windows) == 1
    assert windows[0].pair_key[0].name == "List::Add"


def test_unsafe_api_list_can_be_disabled():
    log = build_log([
        ev(0.1, 1, EN, "List::Add", addr=9, unsafe_api="write"),
        ev(0.2, 2, EN, "List::Contains", addr=9, unsafe_api="read"),
    ])
    windows = WindowExtractor(
        1.0, 15, use_unsafe_api_list=False
    ).extract(log)
    assert windows == []


def test_occurrence_counts_per_window():
    log = build_log([
        ev(0.10, 1, W, "C::x"),
        ev(0.11, 1, EX, "C::Noise"),
        ev(0.12, 1, EX, "C::Noise"),
        ev(0.13, 1, EX, "C::Noise"),
        ev(0.20, 2, R, "C::x"),
    ])
    w = WindowExtractor(1.0, 15).extract(log)[0]
    assert w.release_side[OpRef("C::Noise", EX)] == 3
    assert w.release_side[OpRef("C::x", W)] == 1


def test_refinement_not_propagated_truncates_release_window():
    # T1: a=write x; TrueRel exits; Noise exits (delayed, no propagation);
    # T2: b=read x at a time *before* the delay would have ended.
    site = OpRef("C::Noise", EX)
    delay = DelayInterval(thread_id=1, start=0.14, end=0.24, site=site)
    log = build_log(
        [
            ev(0.10, 1, W, "C::x"),
            ev(0.12, 1, EX, "C::TrueRel"),
            ev(0.24, 1, EX, "C::Noise"),  # executed after paying delay
            ev(0.18, 2, R, "C::x"),       # b did not stall
        ],
        delays=[delay],
    )
    w = WindowExtractor(1.0, 15).extract(log)[0]
    assert w.refined
    assert site not in w.release_side
    assert OpRef("C::TrueRel", EX) in w.release_side
    assert OpRef("C::x", W) in w.release_side  # endpoint kept


def test_refinement_propagated_shrinks_acquire_window():
    # Delay before the true release propagates: b stalls with it.  The
    # acquire window shrinks to ops at/after the delay's end; completed
    # noise calls from before the delay are dropped.
    site = OpRef("C::TrueRel", EX)
    delay = DelayInterval(thread_id=1, start=0.12, end=0.22, site=site)
    log = build_log(
        [
            ev(0.110, 2, EN, "C::EarlyNoise"),
            ev(0.115, 2, EX, "C::EarlyNoise"),
            ev(0.10, 1, W, "C::x"),
            ev(0.22, 1, EX, "C::TrueRel"),
            ev(0.24, 2, EN, "C::Acquire"),
            ev(0.26, 2, R, "C::x"),
        ],
        delays=[delay],
    )
    w = WindowExtractor(1.0, 15).extract(log)[0]
    assert w.refined
    assert OpRef("C::EarlyNoise", EN) not in w.acquire_side
    assert OpRef("C::Acquire", EN) in w.acquire_side
    assert OpRef("C::x", R) in w.acquire_side


def test_refinement_propagated_recovers_blocked_call():
    # The call b's thread was blocked inside while the delay ran joins the
    # refined acquire window even though its ENTER precedes the release.
    site = OpRef("C::TrueRel", EX)
    delay = DelayInterval(thread_id=1, start=0.12, end=0.22, site=site)
    log = build_log(
        [
            ev(0.10, 1, W, "C::x"),
            ev(0.22, 1, EX, "C::TrueRel"),
            ev(0.11, 2, EN, "C::BlockingAcquire"),  # blocked across delay
            ev(0.24, 2, EX, "C::BlockingAcquire"),
            ev(0.26, 2, R, "C::x"),
        ],
        delays=[delay],
    )
    w = WindowExtractor(1.0, 15).extract(log)[0]
    assert w.refined
    assert OpRef("C::BlockingAcquire", EN) in w.acquire_side


def test_refinement_disabled_keeps_raw_windows():
    site = OpRef("C::Noise", EX)
    delay = DelayInterval(thread_id=1, start=0.14, end=0.24, site=site)
    log = build_log(
        [
            ev(0.10, 1, W, "C::x"),
            ev(0.24, 1, EX, "C::Noise"),
            ev(0.30, 2, R, "C::x"),
        ],
        delays=[delay],
    )
    w = WindowExtractor(1.0, 15, refine=False).extract(log)[0]
    assert not w.refined
    assert site in w.release_side


class TestWindowCapIsPerLog:
    """``window_cap`` scopes to one trace log (one test execution), as the
    ``SherlockConfig.window_cap`` field documents.  The counter resets for every log, so k logs may contribute up to
    ``k * cap`` windows for the same static location pair.  The
    incremental encoder's append-only window stream depends on this: a
    cross-log (cross-round) cap would retroactively drop windows that
    earlier rounds already encoded."""

    @staticmethod
    def _noisy_log(run_id, n_pairs=40):
        events = []
        t = 0.0
        for _ in range(n_pairs):
            events.append(ev(t, 1, W, "C::x"))
            events.append(ev(t + 0.001, 2, R, "C::x"))
            t += 0.01
        log = build_log(events)
        log.run_id = run_id
        return log

    def test_each_log_contributes_up_to_cap(self):
        extractor = WindowExtractor(near=0.005, window_cap=15)
        first = extractor.extract(self._noisy_log(0))
        second = extractor.extract(self._noisy_log(1))
        # The second log is NOT throttled by the first log's windows.
        assert len(first) == 15
        assert len(second) == 15

    def test_store_accumulates_cap_per_log(self):
        from repro.core.stats import ObservationStore

        extractor = WindowExtractor(near=0.005, window_cap=15)
        store = ObservationStore()
        for run_id in range(3):
            log = self._noisy_log(run_id)
            store.ingest_run(log, extractor.extract(log))
        assert len(store.windows) == 3 * 15

    def test_cap_still_binds_within_one_log(self):
        extractor = WindowExtractor(near=0.005, window_cap=7)
        assert len(extractor.extract(self._noisy_log(0, n_pairs=40))) == 7

    def test_indexed_and_allpairs_share_the_per_log_scope(self):
        for extractor_cls in (WindowExtractor, AllPairsWindowExtractor):
            extractor = extractor_cls(near=0.005, window_cap=15)
            assert len(extractor.extract(self._noisy_log(0))) == 15
            assert len(extractor.extract(self._noisy_log(1))) == 15


def test_malformed_logs_are_rejected():
    """Windows are undefined over a log whose timestamps run backwards
    or whose ``seq`` stamps are not dense: extraction refuses it and
    names the first offending event."""
    backwards = TraceLog(run_id=0)
    backwards.append(ev(0.5, 1, W, "C::x"))
    backwards.append(ev(0.1, 2, R, "C::x"))
    with pytest.raises(ValueError, match="backwards at seq 1"):
        WindowExtractor(1.0, 15).extract(backwards)

    sparse = build_log([ev(0.1, 1, W, "C::x"), ev(0.2, 2, R, "C::x")])
    object.__setattr__(sparse.events[1], "seq", 7)
    with pytest.raises(ValueError, match="event 1 has seq 7"):
        WindowExtractor(1.0, 15).extract(sparse)
