"""scipy/HiGHS backend for the LP layer.

This is the production backend: SherLock's models routinely have a few
thousand variables and constraints, and HiGHS solves them in milliseconds.
The from-scratch :mod:`repro.lp.revised` backend cross-checks it in tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import Model, StandardForm
from .solution import Solution, SolveStatus


def solve_scipy(
    model: Model, form: Optional[StandardForm] = None
) -> Solution:
    """Solve a :class:`Model` using :func:`scipy.optimize.linprog` (HiGHS).

    ``form`` lets callers pass an already-lowered standard form (the
    incremental encoder reuses its cached prefix lowering this way).
    """
    from scipy.optimize import linprog

    if form is None:
        form = model.to_standard_form()
    n = len(form.variables)
    if n == 0:
        return Solution(
            SolveStatus.OPTIMAL, form.objective_offset, {}, "scipy"
        )

    # HiGHS takes the CSR blocks as they are; absent when there are no
    # rows.
    a_ub = form.a_ub if form.a_ub.shape[0] else None
    a_eq = form.a_eq if form.a_eq.shape[0] else None
    bounds = [
        (lo, hi if hi is not None else np.inf) for lo, hi in form.bounds
    ]
    problem = dict(
        c=form.c,
        A_ub=a_ub,
        b_ub=form.b_ub if a_ub is not None else None,
        A_eq=a_eq,
        b_eq=form.b_eq if a_eq is not None else None,
        bounds=bounds,
        # Dual simplex returns vertex solutions, which keeps SherLock's
        # probability variables integral instead of interior-point mixes.
        method="highs-ds",
    )
    result = linprog(**problem)
    if result.status == 2:
        # HiGHS presolve reports "infeasible" for some LPs that are in
        # fact unbounded; without presolve the solver tells the two
        # apart.  Only non-optimal solves pay for the second call.
        result = linprog(**problem, options={"presolve": False})
    status = {
        0: SolveStatus.OPTIMAL,
        2: SolveStatus.INFEASIBLE,
        3: SolveStatus.UNBOUNDED,
    }.get(result.status, SolveStatus.ERROR)
    if status is not SolveStatus.OPTIMAL:
        return Solution(status, backend="scipy")

    values = dict(zip(form.variables, result.x.tolist()))
    sol = Solution(
        SolveStatus.OPTIMAL,
        float(result.fun) + form.objective_offset,
        values,
        "scipy",
    )
    sol.iterations = int(getattr(result, "nit", 0) or 0)
    return sol


__all__ = ["solve_scipy"]
