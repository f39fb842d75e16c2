"""Dual-simplex re-solve for warm-started scale-tier rounds.

:class:`~repro.core.encoder.IncrementalEncoder` carries the previous
round's basis forward, but a round's delta (new windows, new
constraints, presolve eliminating different rows) usually leaves that
basis *short* or *primal-infeasible*: the plain warm start in
:mod:`repro.lp.revised` then gives up and the cold path re-runs its
two-phase driver from the crash basis.  The basis is almost always
still **dual-feasible**, though — optimality of reduced costs does not
depend on the right-hand side — so this module re-enters the solve
without any phase-1 work:

1. *partially* resolve the carried labels (unknown labels are simply
   skipped, where the strict warm path rejects the whole basis);
2. deterministically extend to a full basis — each uncovered row takes
   its own slack column, else its crash singleton (the ``max0``
   auxiliary that covers every Mostly-Protected window row);
3. if the basic point is primal-feasible, hand straight to the primal
   phase-2 iterator; otherwise run textbook dual-simplex pivots
   (leaving row = most negative basic value, entering column by the
   dual ratio test over ``reduced_j / -alpha_rj``, ties to the largest
   pivot magnitude) on the same LU/eta machinery
   (:class:`~repro.lp.factor.LUFactor`) the primal iterator uses;
4. if the extended basis is not dual-feasible either, *cost shifting*
   makes it so exactly (each offending nonbasic reduced cost is raised
   to zero), the dual loop restores primal feasibility under the
   shifted costs, and a final primal phase-2 pass under the true costs
   finishes — still zero phase-1 iterations.

Every failure path returns ``None`` and the caller falls back to the
existing primal cold start; this module never declares a problem
infeasible or unbounded from a partial basis.  It is only entered at
scale-tier sizes (``n_real >=`` the 4096-column Dantzig gate), so the
paper-sized byte-identity contract between the revised simplex and
its tableau test oracle is untouched.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from ..metrics import count
from .solution import BasisLabels, Solution, SolveStatus

_EPS = 1e-9
#: Reduced costs no worse than this count as dual-feasible (slightly
#: looser than ``_EPS``: the carried basis was optimal for the previous
#: round's data, so its reduced costs are only roundoff-negative).
_DUAL_FEAS_TOL = 1e-7


def _partial_resolve(problem, warm_basis: BasisLabels) -> List[int]:
    """Carried labels → current column indices, *skipping* labels that
    no longer resolve (the strict resolver rejects the whole basis) and
    deduplicating on first occurrence."""
    name_to_col: Dict[str, int] = {
        var.name: i for i, var in enumerate(problem.form.variables)
    }
    bound_col: Dict[str, int] = {
        name: problem.n + problem.m_ub_con + k
        for k, name in enumerate(problem.bound_row_vars)
    }
    cols: List[int] = []
    seen = set()
    for kind, key in warm_basis:
        if kind == "v":
            col = name_to_col.get(key)
        elif kind == "s":
            col = (
                problem.n + key
                if isinstance(key, int) and 0 <= key < problem.m_ub_con
                else None
            )
        elif kind == "b":
            col = bound_col.get(key)
        else:
            col = None
        if col is None or col in seen:
            continue
        seen.add(col)
        cols.append(col)
    return cols


def _singleton_columns(problem) -> Dict[int, int]:
    """Row → its crash-singleton structural column (the same scan as
    ``_crash_singletons``: exactly one stored nonzero, positive after
    sign normalization, lowest column index wins)."""
    a = problem.matrix  # CSC
    indptr, indices, data = a.indptr, a.indices, a.data
    nz_pos = np.nonzero(data != 0.0)[0]
    col_of = np.searchsorted(indptr, nz_pos, side="right") - 1
    counts = np.bincount(col_of, minlength=a.shape[1])
    out: Dict[int, int] = {}
    for j in np.nonzero(counts[: problem.n] == 1)[0].tolist():
        lo, hi = indptr[j], indptr[j + 1]
        k = lo + int(np.nonzero(data[lo:hi])[0][0])
        if data[k] > _EPS:
            out.setdefault(int(indices[k]), j)
    return out


def _extend_basis(problem, cols: List[int]) -> Optional[List[int]]:
    """Complete a partial column set to ``m`` columns deterministically:
    uncovered rows take their slack, else their crash singleton; any
    remaining shortfall is padded with unused slacks then singletons.
    ``None`` when no artificial-free completion exists (the caller then
    cold-starts)."""
    m = problem.m
    if len(cols) > m:
        return None
    used = set(cols)
    covered = np.zeros(m, dtype=bool)
    a = problem.matrix
    for col in cols:
        lo, hi = a.indptr[col], a.indptr[col + 1]
        covered[a.indices[lo:hi]] = True
    singles = _singleton_columns(problem)
    out = list(cols)
    for i in range(m):
        if len(out) == m:
            break
        if covered[i]:
            continue
        slack = problem.n + i if i < problem.m_ub else None
        if slack is not None and slack not in used:
            used.add(slack)
            out.append(slack)
            continue
        j = singles.get(i)
        if j is not None and j not in used:
            used.add(j)
            out.append(j)
    if len(out) < m:
        for i in range(problem.m_ub):
            if len(out) == m:
                break
            col = problem.n + i
            if col not in used:
                used.add(col)
                out.append(col)
    if len(out) < m:
        for i in sorted(singles):
            if len(out) == m:
                break
            j = singles[i]
            if j not in used:
                used.add(j)
                out.append(j)
    if len(out) != m:
        return None
    return out


def _dual_iterate(state, costs_real: np.ndarray, max_iter: int):
    """Dual-simplex pivots until the basic point is primal-feasible.

    Returns the iteration count, or ``None`` on any trouble (no
    eligible entering column, tiny pivot, singular refactorization,
    iteration limit) — the caller falls back to the primal cold start.
    """
    problem = state.problem
    matrix_t = problem.matrix_t
    n_real = problem.n_real
    m = problem.m
    timers = state.timers
    basis = state.basis
    basis_arr = np.asarray(basis, dtype=np.int64)
    in_basis = np.zeros(n_real, dtype=bool)
    in_basis[basis_arr] = True
    cb = costs_real[basis_arr]
    iters = 0
    while iters < max_iter:
        if state.lu.should_refactor and not state.refactor():
            return None
        xb = state.xb
        r = int(np.argmin(xb))
        if xb[r] >= -_EPS:
            return iters
        t0 = perf_counter()
        y = state.lu.btran(cb)
        e_r = np.zeros(m)
        e_r[r] = 1.0
        rho = state.lu.btran(e_r)
        timers.ftran_btran_s += perf_counter() - t0
        t0 = perf_counter()
        reduced = costs_real - matrix_t @ y
        reduced[in_basis] = 0.0
        alpha = matrix_t @ rho  # row r of B^-1 A over the real columns
        candidates = np.nonzero(~in_basis & (alpha < -_EPS))[0]
        timers.pricing_s += perf_counter() - t0
        if candidates.size == 0:
            # The row cannot be repaired by a dual pivot.  A complete
            # dual simplex would declare primal infeasibility here, but
            # an extended partial basis does not carry that proof —
            # fall back and let the two-phase driver decide.
            return None
        ratios = reduced[candidates] / -alpha[candidates]
        tied = np.nonzero(ratios <= ratios.min() + _EPS)[0]
        pick = tied[int(np.argmax(np.abs(alpha[candidates[tied]])))]
        j = int(candidates[pick])
        t0 = perf_counter()
        w = state.lu.ftran(problem.column_dense(j))
        timers.ftran_btran_s += perf_counter() - t0
        if abs(w[r]) <= _EPS:
            return None
        step = xb[r] / w[r]
        state.xb = xb - step * w
        state.xb[r] = step
        np.copyto(
            state.xb, 0.0, where=(state.xb < 0) & (state.xb > -1e-9)
        )
        leaving = basis[r]
        in_basis[leaving] = False
        in_basis[j] = True
        basis[r] = j
        basis_arr[r] = j
        cb[r] = costs_real[j]
        iters += 1
        if state.lu.can_update(w, r):
            state.counters.eta_entries += state.lu.update(w, r)
            state.counters.eta_updates += 1
        elif not state.refactor():
            return None
    return None


def attempt_dual_resolve(
    problem,
    warm_basis: BasisLabels,
    counters,
    timers,
    max_iter: int,
) -> Optional[Solution]:
    """Re-solve from a carried (possibly short or stale) basis with zero
    phase-1 iterations, or ``None`` to fall back to the cold start."""
    from .revised import (
        BACKEND_NAME,
        _FactorContext,
        _IterationState,
        _extract,
        _factor,
        _iterate,
        _perturb_rhs,
    )

    cols = _partial_resolve(problem, warm_basis)
    # A *full* carried basis extended by fresh slacks for new rows is
    # provably nonsingular (unit columns on distinct new rows reduce
    # the determinant to the old basis's), but a partially-resolved one
    # can complete to a dependent column set — retry once from the pure
    # slack/crash completion (the cold start's initial basis without
    # artificials) before giving up.
    lu = None
    full = None
    ctx = _FactorContext()
    for attempt in (cols, []) if cols else (cols,):
        full = _extend_basis(problem, list(attempt))
        if full is None:
            continue
        ctx = _FactorContext()
        lu = _factor(problem, full, counters, timers, ctx)
        if lu is not None:
            break
    if lu is None or full is None:
        return None
    _perturb_rhs(problem)
    state = _IterationState(problem, full, lu, counters, timers, ctx)
    costs = np.zeros(problem.n_real)
    costs[: problem.n] = problem.c

    dual_iters = 0
    if np.any(state.xb < 0):
        basis_arr = np.asarray(state.basis, dtype=np.int64)
        cb = costs[basis_arr]
        t0 = perf_counter()
        y = state.lu.btran(cb)
        timers.ftran_btran_s += perf_counter() - t0
        reduced = costs - problem.matrix_t @ y
        in_basis = np.zeros(problem.n_real, dtype=bool)
        in_basis[basis_arr] = True
        reduced[in_basis] = 0.0
        work_costs = costs
        if float(reduced.min()) < -_DUAL_FEAS_TOL:
            # Cost shifting: raise each offending nonbasic reduced cost
            # to exactly zero so the basis is dual-feasible by
            # construction; the closing primal pass below runs under
            # the true costs and restores optimality.
            work_costs = costs.copy()
            neg = reduced < 0
            work_costs[neg] -= reduced[neg]
        dual_iters = _dual_iterate(state, work_costs, max_iter)
        if dual_iters is None:
            return None

    status = _iterate(
        state, costs, art_cost=0.0, max_iter=max_iter, pin_artificials=False
    )
    if status not in ("optimal", "unbounded"):
        return None
    count("lp_dual_iterations", dual_iters)
    count("lp_phase1_skipped")
    if status == "unbounded":
        return Solution(SolveStatus.UNBOUNDED, backend=BACKEND_NAME)
    return _extract(problem, state, counters, dual_iters)


__all__ = ["attempt_dual_resolve"]
