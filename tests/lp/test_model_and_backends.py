"""Model construction and backend cross-checking tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.lp import Model, SolveStatus, solve, solve_scipy
from repro.lp.backends import available_backends
from tests.oracles import solve_simplex


def test_duplicate_variable_names_rejected():
    m = Model()
    m.add_variable("x")
    with pytest.raises(ValueError):
        m.add_variable("x")


def test_foreign_variable_rejected():
    m1, m2 = Model(), Model()
    x = m1.add_variable("x")
    with pytest.raises(ValueError):
        m2.add_constraint(x <= 1)


def test_unknown_backend_rejected():
    m = Model()
    with pytest.raises(ValueError):
        solve(m, backend="nope")
    assert "scipy" in available_backends()
    assert "simplex" in available_backends()


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_simple_minimization(backend):
    # minimize x + y  s.t.  x + y >= 1, x,y in [0,1]
    m = Model()
    x = m.add_variable("x", 0, 1)
    y = m.add_variable("y", 0, 1)
    m.add_constraint(x + y >= 1)
    m.add_objective_term(x + y)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_prefers_cheap_variable(backend):
    # Two ways to cover a constraint; the cheaper one must be picked.
    m = Model()
    x = m.add_variable("x", 0, 1)
    y = m.add_variable("y", 0, 1)
    m.add_constraint(x + y >= 1)
    m.add_objective_term(x * 1.0 + y * 3.0)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(1.0, abs=1e-6)
    assert sol.values[y] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_equality_constraints(backend):
    m = Model()
    x = m.add_variable("x", 0, 10)
    y = m.add_variable("y", 0, 10)
    m.add_constraint((x + y) == 4)
    m.add_constraint((x - y) == 2)
    m.add_objective_term(x)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(3.0, abs=1e-6)
    assert sol.values[y] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_infeasible_detected(backend):
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_constraint(x >= 2)
    m.add_objective_term(x)
    sol = backend(m)
    assert sol.status is SolveStatus.INFEASIBLE


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_unbounded_detected(backend):
    m = Model()
    x = m.add_variable("x", 0, None)
    m.add_objective_term(-1.0 * x)
    sol = backend(m)
    assert sol.status is SolveStatus.UNBOUNDED


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_max0_lowering(backend):
    # minimize max(0, 1 - x) + 0.5 x  -> optimum at x = 1, value 0.5.
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_max0_term(1 - x)
    m.add_objective_term(x, 0.5)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(1.0, abs=1e-6)
    assert sol.objective == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_max0_prefers_zero_when_costly(backend):
    # minimize max(0, 1 - x) + 2 x -> optimum at x = 0, value 1.
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_max0_term(1 - x)
    m.add_objective_term(x, 2.0)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(0.0, abs=1e-6)
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_abs_lowering(backend):
    # minimize |x - y| + y  s.t. x = 1  -> y = 1 costs 1, y = 0 costs 1;
    # adding a slight preference for pairing picks y to balance.
    m = Model()
    x = m.add_variable("x", 0, 1)
    y = m.add_variable("y", 0, 1)
    m.add_constraint((x + 0) == 1)
    m.add_abs_term(x - y, weight=2.0)
    m.add_objective_term(y, 1.0)
    sol = backend(m)
    assert sol.is_optimal
    # Pairing dominates: y pulled up to x.
    assert sol.values[y] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("backend", [solve_scipy, solve_simplex])
def test_objective_offset_carried(backend):
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_objective_term(x + 7.0)
    sol = backend(m)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(7.0, abs=1e-6)


def test_solution_helpers():
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_constraint(x >= 0.25)
    m.add_objective_term(x)
    sol = m.solve()
    assert sol.value(x) == pytest.approx(0.25, abs=1e-6)
    assert sol.by_name()["x"] == pytest.approx(0.25, abs=1e-6)
    assert "optimal" in repr(sol)


def test_empty_model_solves():
    m = Model()
    sol = solve_scipy(m)
    assert sol.is_optimal
    sol2 = solve_simplex(m)
    assert sol2.is_optimal


def test_model_without_constraints_simplex():
    m = Model()
    x = m.add_variable("x", 0, 5)
    m.add_objective_term(-1.0 * x)
    sol = solve_simplex(m)
    assert sol.is_optimal
    assert sol.values[x] == pytest.approx(5.0)


def test_standard_form_shapes():
    m = Model()
    x = m.add_variable("x", 0, 1)
    y = m.add_variable("y")
    m.add_constraint(x + y <= 3)
    m.add_constraint(x - y >= -1)
    m.add_constraint((x + 2 * y) == 2)
    m.add_objective_term(x + y)
    form = m.to_standard_form()
    assert form.a_ub.shape == (2, 2)
    assert form.a_eq.shape == (1, 2)
    # >= row was flipped into <=.
    assert np.allclose(form.a_ub.toarray()[1], [-1.0, 1.0])
    assert form.b_ub[1] == pytest.approx(1.0)


def test_auto_backend_matches_named():
    m = Model()
    x = m.add_variable("x", 0, 1)
    m.add_constraint(x >= 0.5)
    m.add_objective_term(x)
    assert m.solve("auto").objective == pytest.approx(
        m.solve("scipy").objective
    )


def test_presolve_follows_its_gate_only():
    """Presolve has no switch: the 4096-real-column gate is the rule."""
    import inspect

    assert "presolve" not in inspect.signature(solve).parameters
    assert "presolve" not in inspect.signature(Model.solve).parameters


def test_auto_falls_back_to_revised_when_highs_errors(monkeypatch):
    """``auto`` hands the model to the revised simplex when HiGHS ends
    with a status outside {0, 2, 3}: here 4, numerical trouble."""
    import scipy.optimize

    m = Model()
    xs = [m.add_variable(f"x{i}", 0, 1) for i in range(3)]
    m.add_constraint(xs[0] + xs[1] >= 1)
    m.add_constraint(xs[1] + xs[2] >= 1)
    for i, x in enumerate(xs):
        m.add_objective_term(x, 1.0 + i)
    expected = solve(m, "simplex")

    calls = []

    def numerical_trouble(*args, **kwargs):
        calls.append(kwargs)
        return SimpleNamespace(status=4, x=None, fun=None, nit=0)

    monkeypatch.setattr(scipy.optimize, "linprog", numerical_trouble)
    sol = solve(m, "auto")
    assert calls
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.backend == "revised-simplex"
    assert sol.objective == expected.objective
    assert sol.objective == pytest.approx(2.0)


def test_model_repr_and_stats():
    m = Model("demo")
    x = m.add_variable("x")
    m.add_constraint(x <= 1)
    m.add_objective_term(x)
    assert m.stats()["variables"] == 1
    assert "demo" in repr(m)
    assert m.get_variable("x") is x
    assert m.has_variable("x")
    assert not m.has_variable("y")
