"""Unit tests for the trace sanitizer: each invariant fires on a
hand-corrupted trace and stays quiet on genuine kernel output."""

import pytest

from repro.apps.registry import app_ids, family_app_ids, get_application
from repro.core.config import SherlockConfig
from repro.core.observer import Observer
from repro.core.windows import Window, WindowExtractor
from repro.fuzz import TraceSanitizer, sanitize_execution, trace_digest
from repro.fuzz.sanitizer import _index_endpoints
from repro.sim.runner import TestExecution as Execution
from repro.trace import OpType, TraceEvent, TraceLog
from repro.trace.events import DelayInterval
from repro.trace.optypes import OpRef
from tests.oracles import LinearScanSanitizer


def make_log(events, run_id=0):
    log = TraceLog(run_id=run_id)
    for e in events:
        log.append(e)
    return log


def ev(t, tid, op, name, addr=1, **meta):
    return TraceEvent(
        timestamp=t, thread_id=tid, optype=op, name=name, address=addr,
        local_time=t, meta=meta,
    )


def execution(log, error=None):
    return Execution("T::test", log, steps=len(log), error=error)


def codes(violations):
    return sorted({v.code for v in violations})


class TestCleanTraces:
    def test_real_kernel_output_is_clean(self):
        observer = Observer(SherlockConfig())
        for execution_ in observer.observe_round(
            get_application("App-7"), 0, {}
        ):
            assert sanitize_execution(execution_) == []

    def test_empty_log_is_clean(self):
        assert sanitize_execution(execution(make_log([]))) == []


class TestBalance:
    def test_unmatched_exit(self):
        log = make_log([ev(0.1, 1, OpType.EXIT, "C::m")])
        assert codes(sanitize_execution(execution(log))) == ["balance"]

    def test_mismatched_exit_name(self):
        log = make_log([
            ev(0.1, 1, OpType.ENTER, "C::outer"),
            ev(0.2, 1, OpType.ENTER, "C::inner"),
            ev(0.3, 1, OpType.EXIT, "C::outer"),
        ])
        assert "balance" in codes(sanitize_execution(execution(log)))

    def test_unclosed_enter(self):
        log = make_log([ev(0.1, 1, OpType.ENTER, "C::m")])
        assert codes(sanitize_execution(execution(log))) == ["balance"]

    def test_unclosed_enter_tolerated_on_failed_execution(self):
        log = make_log([ev(0.1, 1, OpType.ENTER, "C::m")])
        violations = sanitize_execution(
            execution(log, error="thread t: KeyError")
        )
        assert violations == []

    def test_balanced_nesting_is_clean(self):
        log = make_log([
            ev(0.1, 1, OpType.ENTER, "C::outer"),
            ev(0.2, 1, OpType.ENTER, "C::inner"),
            ev(0.3, 1, OpType.EXIT, "C::inner"),
            ev(0.4, 1, OpType.EXIT, "C::outer"),
        ])
        assert sanitize_execution(execution(log)) == []


class TestMonotoneTime:
    # The conflicting write pairs below would form windows on a
    # well-formed log; on these the window check must stand down (the
    # extractor rejects such logs) rather than crash the sanitizer.

    def test_backwards_timestamp(self):
        log = make_log([
            ev(0.5, 1, OpType.READ, "C::f"),
            ev(0.1, 1, OpType.READ, "C::f"),
        ])
        assert "monotone-time" in codes(sanitize_execution(execution(log)))
        conflicting = make_log([
            ev(0.5, 1, OpType.WRITE, "C::f"),
            ev(0.1, 2, OpType.WRITE, "C::f"),
        ])
        assert codes(sanitize_execution(execution(conflicting))) == [
            "monotone-time"
        ]

    def test_non_dense_seq(self):
        log = make_log([ev(0.1, 1, OpType.READ, "C::f")])
        object.__setattr__(log.events[0], "seq", 7)
        assert "monotone-time" in codes(sanitize_execution(execution(log)))
        conflicting = make_log([
            ev(0.1, 1, OpType.WRITE, "C::f"),
            ev(0.2, 2, OpType.WRITE, "C::f"),
        ])
        object.__setattr__(conflicting.events[1], "seq", 7)
        assert codes(sanitize_execution(execution(conflicting))) == [
            "monotone-time"
        ]

    def test_backwards_local_time(self):
        log = make_log([
            TraceEvent(0.1, 1, OpType.READ, "C::f", 1, local_time=0.5),
            TraceEvent(0.2, 1, OpType.READ, "C::f", 1, local_time=0.1),
        ])
        assert "monotone-time" in codes(sanitize_execution(execution(log)))


class TestAttribution:
    def test_nonpositive_thread_id(self):
        log = make_log([ev(0.1, 0, OpType.READ, "C::f")])
        assert "attribution" in codes(sanitize_execution(execution(log)))

    def test_foreign_run_id(self):
        log = TraceLog(run_id=2)
        log.append(ev(0.1, 1, OpType.READ, "C::f"))
        log.events[0] = TraceEvent(
            0.1, 1, OpType.READ, "C::f", 1, run_id=9, seq=0
        )
        assert "attribution" in codes(sanitize_execution(execution(log)))


class TestFrozenDelays:
    def test_event_inside_delay_interval(self):
        log = make_log([
            ev(0.1, 1, OpType.WRITE, "C::f"),
            ev(0.5, 1, OpType.WRITE, "C::f"),
        ])
        log.add_delay(DelayInterval(
            thread_id=1, start=0.3, end=0.8,
            site=OpRef("C::f", OpType.WRITE),
        ))
        assert "frozen-delay" in codes(sanitize_execution(execution(log)))

    def test_non_positive_duration(self):
        log = make_log([])
        log.add_delay(DelayInterval(
            thread_id=1, start=0.3, end=0.3,
            site=OpRef("C::f", OpType.WRITE),
        ))
        assert "frozen-delay" in codes(sanitize_execution(execution(log)))

    def test_other_thread_may_run_during_delay(self):
        log = make_log([
            ev(0.1, 1, OpType.WRITE, "C::f"),
            ev(0.5, 2, OpType.READ, "C::f"),
        ])
        log.add_delay(DelayInterval(
            thread_id=1, start=0.3, end=0.8,
            site=OpRef("C::f", OpType.WRITE),
        ))
        assert sanitize_execution(execution(log)) == []


class TestConflictingWindows:
    def test_genuine_conflict_is_clean(self):
        log = make_log([
            ev(0.1, 1, OpType.WRITE, "C::f", addr=5),
            ev(0.2, 2, OpType.READ, "C::f", addr=5),
        ])
        assert sanitize_execution(execution(log)) == []

    def test_same_thread_pair_produces_no_window(self):
        log = make_log([
            ev(0.1, 1, OpType.WRITE, "C::f", addr=5),
            ev(0.2, 1, OpType.READ, "C::f", addr=5),
        ])
        assert sanitize_execution(execution(log)) == []


def check_window(log, window, near=1.0):
    """The window check's verdict from production and from the oracle."""
    production = TraceSanitizer(near=near)._verify_window_conflict(
        _index_endpoints(log), window
    )
    oracle = LinearScanSanitizer(near=near)._verify_window_conflict(
        log, window
    )
    return production, oracle


def window(a, b, a_time, b_time):
    """A hand-made window over the static ops ``a`` and ``b``."""
    return Window(pair_key=(a, b), run_id=0, a_time=a_time, b_time=b_time)


W = OpRef("C::f", OpType.WRITE)
R = OpRef("C::f", OpType.READ)


class TestWindowConflictCheck:
    """Hand-made windows the extractor would never build: the check must
    reject each one exactly as the linear-scan oracle does."""

    def test_endpoints_absent_from_the_log(self):
        log = make_log([
            ev(0.1, 1, OpType.WRITE, "C::f", addr=5),
            ev(0.2, 2, OpType.READ, "C::f", addr=5),
        ])
        for w in (
            window(W, R, 0.15, 0.2),   # no a at 0.15
            window(W, R, 0.1, 0.25),   # no b at 0.25
            window(R, W, 0.1, 0.2),    # right times, wrong ops
            window(OpRef("C::g", OpType.WRITE), R, 0.1, 0.2),
        ):
            production, oracle = check_window(log, w)
            assert production == oracle
            assert "endpoints not found" in production.message

    @pytest.mark.parametrize("case", [
        "same-thread", "different-address", "read-read", "beyond-near",
    ])
    def test_endpoints_that_do_not_conflict(self, case):
        a_tid, b_tid, b_addr, b_op, b_time = {
            "same-thread": (1, 1, 5, OpType.READ, 0.2),
            "different-address": (1, 2, 6, OpType.READ, 0.2),
            "read-read": (1, 2, 5, OpType.READ, 0.2),
            "beyond-near": (1, 2, 5, OpType.READ, 1.5),
        }[case]
        a_op = OpType.READ if case == "read-read" else OpType.WRITE
        log = make_log([
            ev(0.1, a_tid, a_op, "C::f", addr=5),
            ev(b_time, b_tid, b_op, "C::f", addr=b_addr),
        ])
        w = window(OpRef("C::f", a_op), OpRef("C::f", b_op), 0.1, b_time)
        production, oracle = check_window(log, w)
        assert production == oracle
        assert production.code == "conflicting-windows"
        assert "do not genuinely conflict" in production.message

    def test_clean_when_any_same_timestamp_pairing_conflicts(self):
        # Two reads of C::f at 0.2: the thread-1 one does not conflict
        # with the thread-1 write, the thread-2 one does.
        for readers in ((1, 2), (2, 1)):
            log = make_log([
                ev(0.1, 1, OpType.WRITE, "C::f", addr=5),
                ev(0.2, readers[0], OpType.READ, "C::f", addr=5),
                ev(0.2, readers[1], OpType.READ, "C::f", addr=5),
            ])
            assert check_window(log, window(W, R, 0.1, 0.2)) == (None, None)

    def test_endpoint_times_match_within_tolerance(self):
        log = make_log([
            ev(0.1, 1, OpType.WRITE, "C::f", addr=5),
            ev(0.2, 2, OpType.READ, "C::f", addr=5),
        ])
        near_hit = window(W, R, 0.1 + 5e-13, 0.2 - 5e-13)
        assert check_window(log, near_hit) == (None, None)
        production, oracle = check_window(
            log, window(W, R, 0.1 + 2e-12, 0.2)
        )
        assert production == oracle
        assert "endpoints not found" in production.message


def _delay_round_executions(app_id, seed):
    """Every execution of a three-round pipeline run; rounds after the
    first carry the Perturber's injected delays."""
    from repro.core.pipeline import Sherlock

    collected = []
    Sherlock(
        get_application(app_id),
        SherlockConfig(rounds=3, seed=seed),
        round_listener=lambda _i, execs: collected.extend(execs),
    ).run()
    return collected


def _shifted(w, da, db):
    return window(*w.pair_key, w.a_time + da, w.b_time + db)


def _verdict(violation):
    if violation is None:
        return "clean"
    return "missing" if "not found" in violation.message else "mismatch"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("app_id", app_ids() + family_app_ids())
def test_window_check_matches_linear_scan_oracle(app_id, seed):
    """Production and oracle agree on every execution, and on every
    extracted window plus displaced copies that miss or mismatch."""
    production = TraceSanitizer()
    oracle = LinearScanSanitizer()
    executions = _delay_round_executions(app_id, seed)
    assert any(e.log.delays for e in executions)
    verdicts = set()
    for execution_ in executions:
        assert production.sanitize(execution_) == oracle.sanitize(
            execution_
        )
        log = execution_.log
        endpoints = _index_endpoints(log)
        for w in WindowExtractor(near=1.0, window_cap=15).extract(log):
            a_ref, b_ref = w.pair_key
            for probe in (
                w,
                window(b_ref, a_ref, w.b_time, w.a_time),
                window(a_ref, a_ref, w.a_time, w.a_time),
                _shifted(w, 0.0, 1e-3),
            ):
                expected = oracle._verify_window_conflict(log, probe)
                assert production._verify_window_conflict(
                    endpoints, probe
                ) == expected
                verdicts.add(_verdict(expected))
    assert verdicts == {"clean", "missing", "mismatch"}


class TestTraceDigest:
    def test_digest_ignores_absolute_addresses(self):
        def run(addr_base):
            log = make_log([
                ev(0.1, 1, OpType.WRITE, "C::f", addr=addr_base),
                ev(0.2, 2, OpType.READ, "C::f", addr=addr_base),
            ])
            return execution(log)

        assert trace_digest([run(100)]) == trace_digest([run(424242)])

    def test_digest_sensitive_to_interleaving(self):
        a = execution(make_log([
            ev(0.1, 1, OpType.WRITE, "C::f"),
            ev(0.2, 2, OpType.READ, "C::f"),
        ]))
        b = execution(make_log([
            ev(0.1, 2, OpType.READ, "C::f"),
            ev(0.2, 1, OpType.WRITE, "C::f"),
        ]))
        assert trace_digest([a]) != trace_digest([b])

    def test_digest_distinguishes_address_aliasing(self):
        """Two objects vs one object is a semantic difference even under
        renumbering."""
        two = execution(make_log([
            ev(0.1, 1, OpType.WRITE, "C::f", addr=1),
            ev(0.2, 2, OpType.READ, "C::f", addr=2),
        ]))
        one = execution(make_log([
            ev(0.1, 1, OpType.WRITE, "C::f", addr=1),
            ev(0.2, 2, OpType.READ, "C::f", addr=1),
        ]))
        assert trace_digest([two]) != trace_digest([one])


class TestSanitizerConfig:
    def test_near_is_honored_for_window_checks(self):
        sanitizer = TraceSanitizer(near=0.05)
        log = make_log([
            ev(0.1, 1, OpType.WRITE, "C::f", addr=5),
            ev(1.0, 2, OpType.READ, "C::f", addr=5),
        ])
        assert sanitizer.sanitize(execution(log)) == []

    def test_violations_carry_test_name_and_run(self):
        log = TraceLog(run_id=3)
        log.append(ev(0.1, 1, OpType.EXIT, "C::m"))
        violations = sanitize_execution(
            Execution("T::mytest", log, steps=1, error=None)
        )
        assert violations and violations[0].test == "T::mytest"
        assert violations[0].run_id == 3
        assert violations[0].to_dict()["code"] == "balance"


@pytest.mark.parametrize("app_id", ["App-2", "App-5"])
def test_delay_rounds_stay_clean(app_id):
    """Rounds with injected delays (the Perturber active) sanitize clean."""
    from repro.core.pipeline import Sherlock

    collected = []
    Sherlock(
        get_application(app_id),
        SherlockConfig(rounds=3, seed=1),
        round_listener=lambda _i, execs: collected.extend(execs),
    ).run()
    assert any(e.log.delays for e in collected)  # Perturber actually ran
    for execution_ in collected:
        assert sanitize_execution(execution_) == []
