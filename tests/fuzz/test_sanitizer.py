"""Unit tests for the trace sanitizer: each invariant fires on a
hand-corrupted trace and stays quiet on genuine kernel output."""

import pytest

from repro.apps.registry import get_application
from repro.core.config import SherlockConfig
from repro.core.observer import Observer
from repro.fuzz import TraceSanitizer, sanitize_execution, trace_digest
from repro.sim.runner import TestExecution as Execution
from repro.trace import OpType, TraceEvent, TraceLog
from repro.trace.events import DelayInterval
from repro.trace.optypes import OpRef


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
