"""Property-based cross-check: the dense-tableau oracle vs scipy/HiGHS.

Random small LPs in the shape SherLock generates (unit-box variables,
covering constraints, non-negative objective) must produce the same optimal
objective value from both backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import Model, SolveStatus, solve_scipy
from tests.oracles import solve_simplex


def _build_random_model(n_vars, cover_sets, costs, ub_rows):
    m = Model("prop")
    xs = [m.add_variable(f"x{i}", 0, 1) for i in range(n_vars)]
    for idx_set in cover_sets:
        members = [xs[i % n_vars] for i in idx_set]
        if members:
            expr = members[0] * 0
            seen = set()
            for v in members:
                if v.name not in seen:
                    expr = expr + v
                    seen.add(v.name)
            m.add_constraint(expr >= 1)
    for idx_set, cap in ub_rows:
        members = {xs[i % n_vars].name: xs[i % n_vars] for i in idx_set}
        if members:
            expr = None
            for v in members.values():
                expr = v if expr is None else expr + v
            m.add_constraint(expr <= cap + len(members))
    for x, c in zip(xs, costs):
        m.add_objective_term(x, c)
    return m


@settings(max_examples=40, deadline=None)
@given(
    n_vars=st.integers(2, 6),
    cover_sets=st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=4), max_size=4
    ),
    costs=st.lists(st.floats(0.01, 5.0), min_size=6, max_size=6),
    ub_rows=st.lists(
        st.tuples(
            st.lists(st.integers(0, 9), min_size=1, max_size=3),
            st.floats(0.0, 2.0),
        ),
        max_size=3,
    ),
)
def test_backends_agree_on_objective(n_vars, cover_sets, costs, ub_rows):
    model = _build_random_model(n_vars, cover_sets, costs, ub_rows)
    scipy_sol = solve_scipy(model)
    simplex_sol = solve_simplex(model)
    assert scipy_sol.status is SolveStatus.OPTIMAL
    assert simplex_sol.status is SolveStatus.OPTIMAL
    assert simplex_sol.objective == pytest.approx(
        scipy_sol.objective, abs=1e-5
    )
    # The simplex assignment must itself satisfy all constraints.
    for con in model.constraints:
        assert con.is_satisfied(simplex_sol.values, tol=1e-5)


@settings(max_examples=30, deadline=None)
@given(
    n_vars=st.integers(2, 5),
    cover_sets=st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=3), max_size=3
    ),
    costs=st.lists(st.floats(0.01, 3.0), min_size=5, max_size=5),
    unbounded_mask=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_backends_agree_with_infinite_upper_bounds(
    n_vars, cover_sets, costs, unbounded_mask
):
    """Variables without an upper bound (the aux-variable shape) must not
    perturb agreement: with non-negative costs the LP stays bounded."""
    m = Model("prop-inf")
    xs = [
        m.add_variable(f"x{i}", 0, None if unbounded_mask[i] else 1)
        for i in range(n_vars)
    ]
    for idx_set in cover_sets:
        members = {xs[i % n_vars].name: xs[i % n_vars] for i in idx_set}
        expr = None
        for v in members.values():
            expr = v if expr is None else expr + v
        if expr is not None:
            m.add_constraint(expr >= 1)
    for x, c in zip(xs, costs):
        m.add_objective_term(x, c)
    scipy_sol = solve_scipy(m)
    simplex_sol = solve_simplex(m)
    assert scipy_sol.status is SolveStatus.OPTIMAL
    assert simplex_sol.status is SolveStatus.OPTIMAL
    assert simplex_sol.objective == pytest.approx(
        scipy_sol.objective, abs=1e-5
    )
    for con in m.constraints:
        assert con.is_satisfied(simplex_sol.values, tol=1e-5)


@settings(max_examples=30, deadline=None)
@given(
    costs=st.lists(st.floats(0.0, 1e-10), min_size=3, max_size=3),
)
def test_backends_agree_on_near_zero_costs(costs):
    """Near-zero costs with covering constraints: the objective is tiny
    but both backends must stay OPTIMAL and feasible."""
    m = Model("prop-tiny")
    xs = [m.add_variable(f"x{i}", 0, 1) for i in range(3)]
    m.add_constraint(xs[0] + xs[1] >= 1)
    m.add_constraint(xs[1] + xs[2] >= 1)
    for x, c in zip(xs, costs):
        m.add_objective_term(x, c)
    scipy_sol = solve_scipy(m)
    simplex_sol = solve_simplex(m)
    assert scipy_sol.status is SolveStatus.OPTIMAL
    assert simplex_sol.status is SolveStatus.OPTIMAL
    assert simplex_sol.objective == pytest.approx(
        scipy_sol.objective, abs=1e-5
    )
    for con in m.constraints:
        assert con.is_satisfied(simplex_sol.values, tol=1e-5)


class TestUnconstrainedBranchEdgeCases:
    """The no-constraints fast path must use one epsilon and one
    finiteness test for both the unboundedness check and the value rule
    (regression: a cost in (-eps, 0) against an infinite upper bound used
    to be declared unbounded / leak a non-finite value)."""

    def test_negative_cost_infinite_upper_is_unbounded(self):
        m = Model("unc")
        x = m.add_variable("x", 0, None)
        m.add_objective_term(x, -1.0)
        assert solve_simplex(m).status is SolveStatus.UNBOUNDED
        assert solve_scipy(m).status is SolveStatus.UNBOUNDED

    def test_negative_cost_numpy_inf_upper_is_unbounded(self):
        import numpy as np

        m = Model("unc-inf")
        x = m.add_variable("x", 0, np.inf)
        m.add_objective_term(x, -1.0)
        assert solve_simplex(m).status is SolveStatus.UNBOUNDED

    def test_near_zero_negative_cost_stays_at_lower_bound(self):
        m = Model("unc-eps")
        x = m.add_variable("x", 0.5, None)
        m.add_objective_term(x, -1e-12)
        sol = solve_simplex(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values[x] == pytest.approx(0.5)

    def test_zero_cost_infinite_upper_stays_at_lower_bound(self):
        m = Model("unc-zero")
        x = m.add_variable("x", 0.25, None)
        m.add_variable("y", 0, None)  # never enters the objective
        m.add_objective_term(x, 0.0)
        sol = solve_simplex(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values[x] == pytest.approx(0.25)
        assert sol.objective == pytest.approx(0.0)


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3),
    target=st.floats(0.1, 1.0),
)
def test_max0_terms_agree(weights, target):
    """SherLock-shaped objective: coverage max0 terms + regularization."""
    model = Model("prop-max0")
    xs = [model.add_variable(f"v{i}", 0, 1) for i in range(3)]
    model.add_max0_term(target - (xs[0] + xs[1]))
    model.add_max0_term(target - (xs[1] + xs[2]))
    for x, w in zip(xs, weights):
        model.add_objective_term(x, w)
    scipy_sol = solve_scipy(model)
    simplex_sol = solve_simplex(model)
    assert simplex_sol.objective == pytest.approx(
        scipy_sol.objective, abs=1e-5
    )
