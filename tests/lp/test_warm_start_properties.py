"""Warm-start contract tests for the built-in simplex family.

``Solution.basis`` is a tuple of backend-independent labels; the contract
locked down here is:

* a basis emitted by either built-in backend is *accepted* by the other
  (warm phase 2 verifies optimality in zero pivots instead of re-running
  the cold two-phase solve);
* any stale or invalid basis — wrong length, unknown label kind, unknown
  variable, out-of-range slack, duplicates, singular column set, or a
  ``("a", row)`` artificial marker — makes the solver *fall back cleanly*
  to a cold start, never crash and never return a wrong answer.

These are the regression seeds for the warm-start fallback path that
:class:`~repro.core.encoder.IncrementalEncoder` leans on round over
round.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import Model, SolveStatus, solve_revised
from tests.oracles import solve_simplex

_BUILTINS = {"revised": solve_revised, "dense-tableau": solve_simplex}


def _cover_model(name="warm"):
    """A small covering LP that needs real pivots to solve."""
    m = Model(name)
    xs = [m.add_variable(f"x{i}", 0, 1) for i in range(4)]
    m.add_constraint(xs[0] + xs[1] >= 1)
    m.add_constraint(xs[1] + xs[2] >= 1)
    m.add_constraint(xs[2] + xs[3] >= 1)
    for i, x in enumerate(xs):
        m.add_objective_term(x, 1.0 + 0.25 * i)
    return m


@st.composite
def cover_specs(draw):
    n = draw(st.integers(2, 5))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    costs = [
        draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0])) for _ in range(n)
    ]
    return n, rows, costs


def _build_cover(spec, name):
    n, rows, costs = spec
    m = Model(name)
    xs = [m.add_variable(f"x{i}", 0, 1) for i in range(n)]
    for row in rows:
        members = {i % n for i in row}
        expr = xs[0] * 0
        for i in members:
            expr = expr + xs[i]
        m.add_constraint(expr >= 1)
    for x, c in zip(xs, costs):
        m.add_objective_term(x, c)
    return m


@settings(max_examples=50, deadline=None)
@given(spec=cover_specs())
def test_cross_backend_basis_acceptance(spec):
    """A basis from either built-in warm-starts the other: the warm solve
    stays OPTIMAL, matches the cold objective, and — because the basis is
    already optimal — needs zero pivots whenever it is accepted."""
    for emitter_name, emitter in _BUILTINS.items():
        for acceptor_name, acceptor in _BUILTINS.items():
            model = _build_cover(spec, f"{emitter_name}->{acceptor_name}")
            cold = emitter(model)
            assert cold.status is SolveStatus.OPTIMAL
            warm = acceptor(model, warm_basis=cold.basis)
            assert warm.status is SolveStatus.OPTIMAL
            assert warm.objective == pytest.approx(
                cold.objective, rel=1e-12, abs=1e-12
            )


def test_warm_start_skips_pivots_entirely():
    """Accepting an optimal basis means verifying optimality, not
    re-solving: zero iterations, in both directions."""
    for emitter in _BUILTINS.values():
        for acceptor in _BUILTINS.values():
            model = _cover_model()
            cold = emitter(model)
            assert cold.iterations > 0
            warm = acceptor(model, warm_basis=cold.basis)
            assert warm.status is SolveStatus.OPTIMAL
            assert warm.iterations == 0
            assert warm.objective == cold.objective


@pytest.mark.parametrize("backend", list(_BUILTINS), ids=str)
@pytest.mark.parametrize(
    "stale_basis",
    [
        (),  # wrong length: empty
        (("v", "x0"),),  # wrong length: too short
        (("v", "x0"), ("v", "x1"), ("v", "x2"), ("v", "x3")),  # too long
        (("z", 0), ("s", 0), ("s", 1)),  # unknown kind
        (("v", "nope"), ("s", 0), ("s", 1)),  # unknown variable name
        (("s", 999), ("s", 0), ("s", 1)),  # slack index out of range
        (("b", "nope"), ("s", 0), ("s", 1)),  # unknown bound-row variable
        (("s", 0), ("s", 0), ("s", 1)),  # duplicate labels
        (("a", 0), ("s", 0), ("s", 1)),  # artificial marker
    ],
    ids=[
        "empty",
        "short",
        "long",
        "unknown-kind",
        "unknown-var",
        "slack-range",
        "unknown-bound",
        "duplicate",
        "artificial",
    ],
)
def test_invalid_basis_falls_back_cleanly(backend, stale_basis):
    """Every malformed basis degrades to the cold-start answer."""
    model = _cover_model(f"stale-{backend}")
    cold = _BUILTINS[backend](model)
    warm = _BUILTINS[backend](model, warm_basis=stale_basis)
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.objective == cold.objective
    assert warm.values == cold.values


@pytest.mark.parametrize("backend", list(_BUILTINS), ids=str)
def test_singular_resolvable_basis_falls_back(backend):
    """Labels that all resolve but select linearly dependent columns (a
    singular basis matrix) must also fall back, not crash the LU."""
    m = Model(f"singular-{backend}")
    x0 = m.add_variable("x0", 0, None)
    x1 = m.add_variable("x1", 0, None)
    m.add_constraint(x0 + x1 <= 2)
    m.add_constraint(2 * x0 + 2 * x1 <= 4)  # dependent row
    m.add_objective_term(x0, 1.0)
    m.add_objective_term(x1, 2.0)
    cold = _BUILTINS[backend](m)
    assert cold.status is SolveStatus.OPTIMAL
    # Columns of x0 and x1 are [1,2] and [1,2]: singular as a basis.
    warm = _BUILTINS[backend](m, warm_basis=(("v", "x0"), ("v", "x1")))
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.objective == cold.objective


@pytest.mark.parametrize("backend", list(_BUILTINS), ids=str)
def test_basis_from_older_smaller_model_falls_back(backend):
    """The IncrementalEncoder shape: the model grew since the basis was
    emitted (new variables and constraints), so the old basis no longer
    has the right length and the solver cold-starts."""
    old = _cover_model("old")
    basis = _BUILTINS[backend](old).basis

    grown = Model("grown")
    xs = [grown.add_variable(f"x{i}", 0, 1) for i in range(6)]
    grown.add_constraint(xs[0] + xs[1] >= 1)
    grown.add_constraint(xs[1] + xs[2] >= 1)
    grown.add_constraint(xs[2] + xs[3] >= 1)
    grown.add_constraint(xs[4] + xs[5] >= 1)
    for i, x in enumerate(xs):
        grown.add_objective_term(x, 1.0 + 0.1 * i)
    cold = _BUILTINS[backend](grown)
    warm = _BUILTINS[backend](grown, warm_basis=basis)
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.objective == cold.objective


def test_leftover_artificial_emits_a_label_and_both_backends_reject_it():
    """A redundant equality row can leave a phase-1 artificial basic (at
    zero) in the revised simplex, which labels it ``("a", row)``.  That
    label is deliberately rejected by *both* backends' resolvers — the
    next round cold-starts instead of importing a basis that only means
    something to one backend's internal bookkeeping."""
    m = Model("redundant-eq")
    x0 = m.add_variable("x0", 0, 1)
    x1 = m.add_variable("x1", 0, 1)
    m.add_constraint(x0 + x1 == 1)
    m.add_constraint(x0 + x1 == 1)  # redundant copy
    m.add_objective_term(x0, 1.0)
    m.add_objective_term(x1, 2.0)
    sol = solve_revised(m)
    assert sol.status is SolveStatus.OPTIMAL
    kinds = {kind for kind, _ in sol.basis}
    assert "a" in kinds
    for fn in _BUILTINS.values():
        warm = fn(m, warm_basis=sol.basis)
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(sol.objective, abs=1e-12)
