"""Differential test suite: revised simplex vs scipy vs the dense-tableau
oracle (``tests/oracles/simplex.py``).

Hypothesis generates random LPs well outside the SherLock shape — mixed
``<=``/``>=``/``==`` rows (including zero rows and duplicated rows, which
force degenerate pivots and leftover phase-1 artificials), negative lower
bounds, fixed variables (``lo == hi``), variables without an upper bound,
negative costs (so unbounded cases arise), and contradictory rows (so
infeasible cases arise).  Every generated LP is solved by the revised
simplex, scipy and the tableau oracle, and they must agree on

* status (OPTIMAL / INFEASIBLE / UNBOUNDED),
* the optimal objective to 1e-9, and
* feasibility of each backend's own returned point.

The built-ins make one promise beyond that: whenever they report the same
optimal *basis*, their values and objective are bit-identical (the shared
:func:`~repro.lp.revised.finalize_basic_solution` re-solve), which is what
makes full pipeline reports byte-comparable across backends.  One
SherLock LP above 4096 real columns holds them to it at scale too.

A source-scan guard pins the tentpole's core constraint: the revised
simplex never densifies the constraint matrix in its hot path.
"""

import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lp import Model, SolveStatus, solve_revised, solve_scipy
from tests.oracles import solve_simplex

_BUILTINS = {"revised": solve_revised, "dense-tableau": solve_simplex}
_ALL = dict(_BUILTINS, scipy=solve_scipy)


# ---------------------------------------------------------------------------
# Random-LP generation
# ---------------------------------------------------------------------------

_SENSES = ["<=", ">=", "=="]


@st.composite
def lp_specs(draw):
    """A random LP spec: per-variable bounds/costs plus constraint rows."""
    n = draw(st.integers(1, 5))
    bounds = []
    for _ in range(n):
        lo = draw(st.sampled_from([0.0, 0.0, 0.0, -1.5, 1.0]))
        kind = draw(st.sampled_from(["bounded", "bounded", "free-above", "fixed"]))
        if kind == "free-above":
            hi = None
        elif kind == "fixed":
            hi = lo
        else:
            hi = lo + draw(st.sampled_from([0.5, 1.0, 3.0]))
        bounds.append((lo, hi))
    costs = [
        draw(st.sampled_from([-2.0, -0.5, 0.0, 0.0, 0.25, 1.0, 3.0]))
        for _ in range(n)
    ]
    n_rows = draw(st.integers(0, 4))
    rows = []
    for _ in range(n_rows):
        coeffs = [
            draw(st.sampled_from([-2.0, -1.0, 0.0, 0.0, 1.0, 1.0, 2.0]))
            for _ in range(n)
        ]
        sense = draw(st.sampled_from(_SENSES))
        rhs = draw(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0]))
        rows.append((coeffs, sense, rhs))
    # Duplicate one row sometimes: redundant rows are the degenerate case
    # that leaves a phase-1 artificial basic on a dependent row.
    if rows and draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    return bounds, costs, rows


def _build(spec, name="diff"):
    bounds, costs, rows = spec
    m = Model(name)
    xs = [
        m.add_variable(f"x{i}", lo, hi)
        for i, (lo, hi) in enumerate(bounds)
    ]
    for x, c in zip(xs, costs):
        m.add_objective_term(x, c)
    for coeffs, sense, rhs in rows:
        expr = xs[0] * 0
        for x, a in zip(xs, coeffs):
            if a:
                expr = expr + a * x
        if sense == "<=":
            m.add_constraint(expr <= rhs)
        elif sense == ">=":
            m.add_constraint(expr >= rhs)
        else:
            m.add_constraint(expr == rhs)
    return m, xs


def _check_feasible(model, sol, tol=1e-7):
    for con in model.constraints:
        assert con.is_satisfied(sol.values, tol=tol)
    for var in model.variables:
        value = sol.values[var]
        assert value >= var.lower - tol
        if var.upper is not None:
            assert value <= var.upper + tol


# ---------------------------------------------------------------------------
# The three-way differential property
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(spec=lp_specs())
# Unbounded (x = (0, 6, 0, 0, 4) is feasible and (0, 1.5, 0, 0, 1)
# improves without bound) although HiGHS presolve calls it infeasible.
@example(
    spec=(
        [(0.0, 1.0), (0.0, None), (0.0, 1.0), (0.0, 1.0), (0.0, None)],
        [0.0, -2.0, 0.0, 0.0, -2.0],
        [
            ([-2.0, -2.0, -2.0, -2.0, 1.0], "<=", -2.0),
            ([-2.0, 1.0, 1.0, -2.0, -2.0], "<=", -2.0),
        ],
    )
)
def test_three_backends_agree(spec):
    """Status, objective (1e-9), and own-point feasibility must match
    across revised, dense-tableau, and scipy on arbitrary LPs."""
    model, _ = _build(spec)
    sols = {name: fn(model) for name, fn in _ALL.items()}

    statuses = {name: sol.status for name, sol in sols.items()}
    assert len(set(statuses.values())) == 1, statuses

    if sols["scipy"].status is SolveStatus.OPTIMAL:
        reference = sols["scipy"].objective
        for name, sol in sols.items():
            assert sol.objective == pytest.approx(
                reference, rel=1e-9, abs=1e-9
            ), name
            _check_feasible(model, sol)


@settings(max_examples=60, deadline=None)
@given(spec=lp_specs())
def test_builtins_bit_identical_on_shared_basis(spec):
    """The built-ins' cross-backend contract: same optimal basis ⇒
    bit-identical values and objective (the shared finalization re-solve
    erases each algorithm's accumulated roundoff)."""
    model, _ = _build(spec, name="diff-bits")
    revised = solve_revised(model)
    dense = solve_simplex(model)
    assert revised.status is dense.status
    if revised.status is SolveStatus.OPTIMAL and revised.basis == dense.basis:
        assert revised.objective == dense.objective
        assert {v.name: x for v, x in revised.values.items()} == {
            v.name: x for v, x in dense.values.items()
        }


@settings(max_examples=40, deadline=None)
@given(spec=lp_specs())
def test_sherlock_shape_agrees(spec):
    """Unit-box covering LPs (the shape the encoder emits: ``x ∈ [0,1]``,
    ``sum >= 1`` rows, non-negative costs): always solvable, and the
    built-ins — which run identical Bland pivot sequences from identical
    cold starts — must be bit-identical whenever they settle on the same
    basis (they may differ only in redundant-row bookkeeping: a pinned
    artificial in the revised simplex vs a driven-out slack in the
    tableau, which still denotes the same vertex)."""
    bounds, costs, rows = spec
    boxed = [(0.0, 1.0) for _ in bounds]
    covering = [
        ([abs(a) for a in coeffs], ">=", 1.0)
        for coeffs, _, _ in rows
        if any(coeffs)
    ]
    model, _ = _build((boxed, [abs(c) for c in costs], covering), "cover")
    sols = {name: fn(model) for name, fn in _ALL.items()}
    assert all(s.status is SolveStatus.OPTIMAL for s in sols.values())
    assert sols["revised"].objective == pytest.approx(
        sols["scipy"].objective, rel=1e-9, abs=1e-9
    )
    if sols["revised"].basis == sols["dense-tableau"].basis:
        assert sols["revised"].objective == sols["dense-tableau"].objective
    else:
        assert sols["revised"].objective == pytest.approx(
            sols["dense-tableau"].objective, rel=1e-12, abs=1e-12
        )
    for sol in sols.values():
        _check_feasible(model, sol)


@settings(max_examples=30, deadline=None)
@given(
    free_mask=st.lists(st.booleans(), min_size=2, max_size=4),
    costs=st.lists(st.floats(0.1, 2.0), min_size=4, max_size=4),
)
def test_free_variables_error_consistently(free_mask, costs):
    """Truly free variables (lower bound ``-inf``) are outside both
    built-ins' ``x >= 0`` rewrite; they must *both* report ERROR (never
    crash, never silently mis-solve) while scipy still solves the
    model."""
    import numpy as np

    if not any(free_mask):
        free_mask = [True] + list(free_mask[1:])
    m = Model("free")
    xs = [
        m.add_variable(f"x{i}", -np.inf if free else 0.0, 1.0)
        for i, free in enumerate(free_mask)
    ]
    expr = xs[0] * 0
    for x in xs:
        expr = expr + x
    m.add_constraint(expr >= 1)
    for x, c in zip(xs, costs):
        m.add_objective_term(x, c)
    for fn in _BUILTINS.values():
        assert fn(m).status is SolveStatus.ERROR
    assert solve_scipy(m).status is SolveStatus.OPTIMAL


def test_builtins_bit_identical_above_4096_real_columns():
    """The byte-identity contract has no size limit: on a ~4.2k
    real-column SherLock LP (the round-0 model of a synthetic app,
    solved without presolve), the revised simplex and the tableau
    oracle return the same status, objective bits, values and basis.
    Its 2142 rows also take the sparse-LU finalization path."""
    from repro.apps.synth import SynthSpec, build_synth_app
    from repro.core import SherlockConfig
    from repro.core.encoder import build_model
    from repro.core.pipeline import Sherlock
    from repro.lp.revised import _prepare_sparse

    config = SherlockConfig(rounds=1, seed=0)
    app = build_synth_app(
        SynthSpec(app_id="Diff-4k", pairs=7, fields_per_pair=12, episodes=4)
    )
    model, _ = build_model(Sherlock(app, config).run().store, config)
    assert _prepare_sparse(model.to_standard_form()).n_real >= 4096

    revised = solve_revised(model)
    dense = solve_simplex(model)
    assert revised.status is dense.status is SolveStatus.OPTIMAL
    assert revised.objective == dense.objective
    assert revised.basis == dense.basis
    assert {v.name: x for v, x in revised.values.items()} == {
        v.name: x for v, x in dense.values.items()
    }


# ---------------------------------------------------------------------------
# Hot-path densification guard
# ---------------------------------------------------------------------------


def test_revised_hot_path_never_densifies_constraint_matrix():
    """Source-scan guard for the tentpole's core constraint: neither
    ``revised.py``, ``factor.py`` nor ``presolve.py`` may densify the
    constraint matrix (``toarray``/``todense``/``.A``).  The only dense
    objects allowed are m-vectors (ftran/btran right-hand sides, one
    entering column) and the final m×m basis re-solve in extraction;
    presolve works on CSR/CSC index arrays directly."""
    import repro.lp.factor as factor
    import repro.lp.presolve as presolve
    import repro.lp.revised as revised

    for module in (revised, factor, presolve):
        source = inspect.getsource(module)
        assert "toarray" not in source, module.__name__
        assert "todense" not in source, module.__name__
        assert ".A]" not in source and ".A " not in source, module.__name__


# ---------------------------------------------------------------------------
# Presolve differential + round-trip (force-on at paper sizes)
# ---------------------------------------------------------------------------


def _solve_with_presolve_gate(model, min_columns):
    """``backends.solve`` with the presolve gate moved: 0 presolves every
    form, a huge value none.  (A ``MonkeyPatch`` context, because
    function-scoped fixtures do not mix with ``@given``.)"""
    from repro.lp import backends

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "_PRESOLVE_MIN_COLUMNS", min_columns)
        return backends.solve(model, backend="revised-simplex")


@settings(max_examples=120, deadline=None)
@given(spec=lp_specs())
def test_presolve_matches_no_presolve(spec):
    """Forcing presolve below its gate must not change the verdict:
    same status as the un-presolved solve, same objective to 1e-9, and
    the postsolved point feasible on the *original* model."""
    model, _ = _build(spec, name="presolve-diff")
    forced = _solve_with_presolve_gate(model, 0)
    plain = _solve_with_presolve_gate(model, 10**9)
    assert forced.status is plain.status, (forced.status, plain.status)
    if plain.status is SolveStatus.OPTIMAL:
        assert forced.objective == pytest.approx(
            plain.objective, rel=1e-9, abs=1e-9
        )
        _check_feasible(model, forced)
        assert set(forced.values) == set(plain.values)


@settings(max_examples=120, deadline=None)
@given(spec=lp_specs())
def test_presolve_postsolve_round_trip(spec):
    """S3: ``postsolve(presolve(P))`` restores a full exact solution —
    every original variable valued, objective recomputed from the
    original costs, and any reconstructed basis labels *resolve*: they
    warm-start the un-presolved problem straight to the same optimum."""
    model, _ = _build(spec, name="presolve-rt")
    forced = _solve_with_presolve_gate(model, 0)
    if forced.status is not SolveStatus.OPTIMAL:
        return
    assert len(forced.values) == len(model.variables)
    _check_feasible(model, forced)
    if forced.basis is None:
        return
    warm = solve_revised(model, warm_basis=forced.basis)
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(
        forced.objective, rel=1e-9, abs=1e-9
    )


def test_prepare_sparse_keeps_matrix_sparse():
    """The assembled phase-1/2 matrix stays sparse: the CSR standard
    form goes in, and the CSC matrix and its CSR transpose come out."""
    from scipy import sparse

    from repro.lp.revised import _prepare_sparse

    m = Model("sparse-check")
    xs = [m.add_variable(f"x{i}", 0, 1) for i in range(4)]
    m.add_constraint(xs[0] + xs[1] >= 1)
    m.add_constraint(xs[2] + xs[3] == 1)
    m.add_constraint(xs[0] + xs[3] <= 1.5)
    for x in xs:
        m.add_objective_term(x, 1.0)
    problem = _prepare_sparse(m.to_standard_form())
    assert sparse.issparse(problem.matrix)
    assert sparse.issparse(problem.matrix_t)
