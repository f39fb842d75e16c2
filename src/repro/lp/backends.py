"""Backend registry and dispatch for LP solving.

Two solvers sit behind one ``solve()`` call:

* ``"scipy"`` / ``"highs"`` — :func:`~repro.lp.scipy_backend.solve_scipy`
  (HiGHS dual simplex), the production default via ``"auto"``;
* ``"simplex"`` / ``"revised-simplex"`` — the built-in sparse revised
  simplex with an LU-factorized basis
  (:func:`~repro.lp.revised.solve_revised`);
* ``"auto"`` — HiGHS, falling back to the revised simplex when HiGHS
  ends with a status other than optimal, infeasible or unbounded (an
  iteration limit or numerical trouble).

Both consume the same :class:`~repro.lp.model.StandardForm` (CSR
constraint matrices).  The revised simplex's ``warm_basis`` labels are
backend-independent; HiGHS ignores them.  The dense tableau the revised
simplex is differentially tested against lives in
``tests/oracles/simplex.py``.

Presolve (:mod:`repro.lp.presolve`) is orchestrated here, in front of
every backend: at or above 4096 real columns the standard form is
reduced, the backend solves the reduction, and postsolve lifts the
solution (values, objective, basis labels) back to the original form.
Below the gate presolve is the identity, so paper-sized LPs reach the
backend exactly as lowered.  The gate is the only rule.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..metrics import count, timed
from .model import Model, StandardForm
from .solution import Solution

#: Real-column count (structural + slack columns, i.e. ``n + ub rows +
#: finite upper bounds``) at which presolve engages.
_PRESOLVE_MIN_COLUMNS = 4096


def _solve_auto(
    model: Model,
    form: Optional[StandardForm] = None,
    warm_basis=None,
) -> Solution:
    """Prefer HiGHS; fall back to the built-in revised simplex when HiGHS
    reports neither an optimum nor a proof (:attr:`SolveStatus.ERROR`)."""
    from .revised import solve_revised
    from .scipy_backend import solve_scipy
    from .solution import SolveStatus

    solution = solve_scipy(model, form=form)
    if solution.status is SolveStatus.ERROR:
        solution = solve_revised(model, form=form, warm_basis=warm_basis)
    return solution


def _solve_scipy(model, form=None, warm_basis=None):
    from .scipy_backend import solve_scipy

    return solve_scipy(model, form=form)


def _solve_revised(model, form=None, warm_basis=None):
    from .revised import solve_revised

    return solve_revised(model, form=form, warm_basis=warm_basis)


def _registry() -> Dict[str, Callable[..., Solution]]:
    return {
        "auto": _solve_auto,
        "scipy": _solve_scipy,
        "highs": _solve_scipy,
        "simplex": _solve_revised,
        "revised-simplex": _solve_revised,
    }


def available_backends() -> tuple:
    return tuple(_registry())


def _presolve_gate(form: StandardForm) -> bool:
    """Whether ``form`` is scale-tier sized, counted in the revised
    simplex's real columns: structural columns + ub rows + one bound
    row per finite upper bound."""
    n_real = len(form.variables) + form.a_ub.shape[0]
    n_real += sum(
        1
        for _, hi in form.bounds
        if hi is not None and np.isfinite(hi)
    )
    return n_real >= _PRESOLVE_MIN_COLUMNS


def solve(
    model: Model,
    backend: str = "auto",
    form: Optional[StandardForm] = None,
    warm_basis=None,
) -> Solution:
    """Solve ``model`` with the named backend (``auto`` by default).

    ``form`` (a pre-lowered :class:`StandardForm`) and ``warm_basis`` (a
    previous :attr:`Solution.basis`) are optional fast-path inputs; a
    backend that cannot use one simply ignores it.  Forms at or above
    the 4096-real-column gate are presolved before dispatch; smaller
    ones never are.
    """
    registry = _registry()
    if backend not in registry:
        raise ValueError(
            f"unknown LP backend {backend!r}; choose from {sorted(registry)}"
        )
    if form is None:
        form = model.to_standard_form()
    if not _presolve_gate(form):
        return registry[backend](model, form=form, warm_basis=warm_basis)

    from .presolve import presolve_form

    with timed("lp_presolve_s"):
        pres = presolve_form(form)
    count("lp_presolve_rows", pres.rows_eliminated)
    count("lp_presolve_cols", pres.cols_eliminated)
    if pres.status is not None:
        return Solution(pres.status, backend="presolve")
    if pres.identity:
        return registry[backend](model, form=form, warm_basis=warm_basis)
    reduced_warm = pres.map_warm_basis(warm_basis)
    sol = registry[backend](
        model, form=pres.reduced, warm_basis=reduced_warm
    )
    return pres.postsolve(sol)


__all__ = ["solve", "available_backends"]
