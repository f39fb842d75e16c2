"""End-to-end backend differential: full pipeline reports must not
depend on which built-in LP backend solved the rounds.

Extends ``test_incremental_fastpath.py``'s byte-identity pattern across
the *backend* axis: for every registered app, a full 3-round run under
``backend="simplex"`` (the sparse revised simplex) serializes
byte-identically to ``backend="dense-tableau"`` (the dense-tableau
oracle from ``tests/oracles``, registered for the run), both with the
incremental warm-start path on and with it off (the rebuild reference
from ``tests/oracles``).  This
holds because the two built-ins run identical Bland pivot sequences and
share one basis-finalization routine, so they agree on every inferred
sync, every probability bit, and every downstream delay plan.

scipy (HiGHS) is held to the mathematically attainable oracle instead:
these LPs have *alternative optima*, and an external solver may
legitimately return a different optimal vertex (observed on App-1
round 0), after which the perturbation feedback loop diverges by design.
Round 0 always solves the identical LP on identical traces, so there the
objective must match to 1e-9 along with the LP dimensions.
"""

import json
from contextlib import nullcontext

import pytest

from repro.apps.registry import all_applications, get_application
from repro.apps.synth import SynthSpec, build_synth_app
from repro.core import SherlockConfig
from repro.core.pipeline import Sherlock
from repro.core.serialize import report_to_dict
from tests.oracles import dense_tableau_backend, reference_paths

APP_IDS = [app.app_id for app in all_applications()]


def _run(app_id: str, backend: str, incremental: bool):
    with dense_tableau_backend():
        config = SherlockConfig(rounds=3, backend=backend)
        with nullcontext() if incremental else reference_paths():
            return Sherlock(get_application(app_id), config).run()


def _canonical(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


@pytest.mark.parametrize("app_id", APP_IDS)
def test_builtin_backends_byte_identical_reports(app_id):
    """revised vs dense-tableau: byte-identical 3-round reports, with
    warm-start on and off — and warm vs cold byte-identical too (the
    encoder's warm start is a pure fast path, not a semantic change)."""
    revised_warm = _canonical(_run(app_id, "simplex", True))
    dense_warm = _canonical(_run(app_id, "dense-tableau", True))
    assert revised_warm == dense_warm

    revised_cold = _canonical(_run(app_id, "simplex", False))
    dense_cold = _canonical(_run(app_id, "dense-tableau", False))
    assert revised_cold == dense_cold
    assert revised_warm == revised_cold


@pytest.mark.parametrize("app_id", APP_IDS)
def test_scipy_agrees_on_the_round_zero_lp(app_id):
    """Round 0 solves the same LP regardless of backend (no delays have
    been injected yet): scipy and the revised simplex must agree on its
    dimensions and optimal objective to 1e-9.  Later rounds are allowed
    to diverge — an alternative optimal vertex changes the delay plan."""
    scipy_report = _run(app_id, "scipy", True)
    revised_report = _run(app_id, "simplex", True)
    s0 = scipy_report.rounds[0].inference
    r0 = revised_report.rounds[0].inference
    assert s0.n_variables == r0.n_variables
    assert s0.n_constraints == r0.n_constraints
    assert r0.objective == pytest.approx(s0.objective, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("app_id", APP_IDS)
def test_presolve_flag_byte_identical_below_gate(app_id, monkeypatch):
    """Presolve never runs on a paper-sized LP: a full 3-round run on
    every registered app completes with ``presolve_form`` rigged to
    raise.  Paper-sized LPs sit far below the 4096-real-column gate, so
    presolve cannot change their reports — this is the regression lock
    on the gate itself.  (Above the gate,
    ``test_scale_tier_warm_rounds_skip_phase1`` shows presolve runs.)"""
    import repro.lp.presolve as presolve

    def must_not_run(*args, **kwargs):
        raise AssertionError("presolve ran below the 4096-column gate")

    monkeypatch.setattr(presolve, "presolve_form", must_not_run)
    report = _run(app_id, "auto", True)
    assert len(report.rounds) == 3


def test_presolve_and_phase1_counters_flow_to_metrics():
    """The presolve / phase-1 counters recorded by the solver reach
    RunMetrics: warm-started incremental rounds skip phase 1 entirely,
    the counters aggregate across rounds, and ``describe()`` surfaces
    them for ``--stats``."""
    report = Sherlock(
        get_application(APP_IDS[1]),
        SherlockConfig(rounds=3, backend="simplex"),
    ).run()
    metrics = report.metrics
    # Warm-started rounds (and paper-sized cold solves, whose crash
    # basis covers every row) do zero phase-1 work.
    assert metrics.lp_phase1_skipped >= 1
    assert metrics.lp_phase1_iterations >= 0
    # Below the gate presolve is the identity: no reductions, no time.
    assert metrics.lp_presolve_rows == 0
    assert metrics.lp_presolve_cols == 0
    described = metrics.describe()
    assert "presolve" in described
    assert "phase-1 skipped" in described


def test_scale_tier_warm_rounds_skip_phase1():
    """Above the 4096-column presolve gate (~3k variables here)
    presolve reduces every round, and each round starts phase 2 from
    the carried basis or from the crash basis, which covers every row:
    three revised-simplex rounds do no phase-1 work at all, and the
    presolve reductions show up in the metrics."""
    app = build_synth_app(
        SynthSpec(app_id="App-XLw", pairs=3, fields_per_pair=12, episodes=6)
    )
    report = Sherlock(app, SherlockConfig(rounds=3, backend="simplex")).run()
    metrics = report.metrics
    assert metrics.lp_phase1_skipped == 3
    assert metrics.lp_phase1_iterations == 0
    assert metrics.lp_presolve_rows > 0


def test_revised_backend_reports_factorization_metrics():
    """The factorization counters flow from the LU all the way to
    RunMetrics (and stay zero for backends without a factorized basis)."""
    report = Sherlock(
        get_application(APP_IDS[1]),
        SherlockConfig(rounds=2, backend="simplex"),
    ).run()
    metrics = report.metrics
    assert metrics.lp_factorizations >= 1
    assert metrics.lp_refactorizations >= 0
    assert "factorizations" in metrics.describe()

    scipy_report = Sherlock(
        get_application(APP_IDS[1]),
        SherlockConfig(rounds=1, backend="scipy"),
    ).run()
    assert scipy_report.metrics.lp_factorizations == 0
