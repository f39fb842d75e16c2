"""The dense tableau simplex: the test oracle for the revised simplex.

The classic two-phase dense tableau with Bland's anti-cycling rule:

* general variable bounds are rewritten into ``x >= 0`` form (shift by the
  lower bound, add a row for a finite upper bound);
* ``>=``/``==`` rows receive artificial variables and phase 1 minimizes
  their sum; an infeasible model is detected by a positive phase-1 optimum;
* phase 2 minimizes the original objective starting from the phase-1 basis.

It favours clarity over speed: it densifies the constraint matrix and
carries the whole ``[A | b]`` tableau through every pivot.  Nothing
under ``src/`` imports it.  It walks the same Bland pivot path as
:func:`repro.lp.revised.solve_revised` and extracts through the same
:func:`~repro.lp.revised.finalize_basic_solution`, so the two agree bit
for bit whenever they agree on the final basis.
:func:`tests.oracles.dense_tableau_backend` registers it as the
``"dense-tableau"`` backend so whole pipeline runs can be diffed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lp.model import Model, StandardForm
from repro.lp.revised import finalize_basic_solution, solve_unconstrained
from repro.lp.solution import BasisLabels, Solution, SolveStatus
from repro.metrics import count

#: Backend name this module reports on its solutions.
BACKEND_NAME = "dense-tableau"

_EPS = 1e-9
_MAX_ITER_FACTOR = 50


class _Tableau:
    """Dense simplex tableau ``[A | b]`` with a cost row."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        m, n = a.shape
        self.m, self.n = m, n
        self.table = np.zeros((m + 1, n + 1))
        self.table[:m, :n] = a
        self.table[:m, n] = b
        self.table[m, :n] = c
        self.basis: List[int] = [0] * m
        self.iterations = 0

    def price_out(self) -> None:
        """Make reduced costs of basic columns zero."""
        m, n = self.m, self.n
        for row, col in enumerate(self.basis):
            coef = self.table[m, col]
            if abs(coef) > _EPS:
                self.table[m, :] -= coef * self.table[row, :]

    def pivot(self, row: int, col: int) -> None:
        table = self.table
        table[row, :] /= table[row, col]
        # Eliminate the pivot column from every other row carrying it.
        # Row selection and per-element arithmetic match the historical
        # scalar loop exactly; rows are processed in blocks so the
        # factor×pivot-row outer product never materializes at full
        # height on scale-tier tableaus.
        factors = table[:, col].copy()
        factors[row] = 0.0
        rows_upd = np.nonzero(np.abs(factors) > _EPS)[0]
        if rows_upd.size:
            pivot_row = table[row, :]
            block = max(1, (1 << 22) // max(table.shape[1], 1))
            for lo in range(0, rows_upd.size, block):
                sel = rows_upd[lo : lo + block]
                table[sel, :] -= factors[sel, None] * pivot_row[None, :]
        self.basis[row] = col
        self.iterations += 1

    def run(self, max_iter: int) -> str:
        """Run simplex iterations until optimal/unbounded/iteration limit."""
        m, n = self.m, self.n
        while self.iterations < max_iter:
            cost_row = self.table[m, :n]
            # Bland's rule: entering variable = smallest index with
            # negative reduced cost.
            negative = np.nonzero(cost_row < -_EPS)[0]
            if negative.size == 0:
                return "optimal"
            entering = int(negative[0])
            col = self.table[:m, entering]
            rhs = self.table[:m, n]
            # Candidate rows vectorized, then the exact fuzzy tie-break
            # chain replayed over the (small) subset — skipped rows never
            # set ``best`` in the historical full loop either.
            best_row, best_ratio = -1, np.inf
            basis = self.basis
            for i in np.nonzero(col > _EPS)[0].tolist():
                ratio = rhs[i] / col[i]
                if ratio < best_ratio - _EPS or (
                    abs(ratio - best_ratio) <= _EPS
                    and (best_row < 0 or basis[i] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = i
            if best_row < 0:
                return "unbounded"
            self.pivot(best_row, entering)
        return "iteration_limit"


def _densify(a, n: int) -> np.ndarray:
    """A fresh dense copy of a CSR constraint block, written in bounded
    row chunks so no second full-size transient is alive at scale-tier
    sizes."""
    m = a.shape[0]
    out = np.zeros((m, n))
    step = max(1, (1 << 24) // max(n, 1))
    for lo in range(0, m, step):
        out[lo : lo + step, :] = a[lo : lo + step].toarray()
    return out


def _prepare(form: StandardForm):
    """Rewrite the standard form into ``A x (<=,==) b`` with ``x >= 0``.

    Returns (a_ub, b_ub, a_eq, b_eq, c, shift, n) where original variable i
    is recovered as ``x[i] + shift[i]``.
    """
    n = len(form.variables)
    shift = np.zeros(n)
    # Standard forms are CSR; the tableau is dense, so densify up front.
    a_ub = _densify(form.a_ub, n)
    b_ub = form.b_ub.copy() if form.b_ub.size else np.zeros(0)
    a_eq = _densify(form.a_eq, n)
    b_eq = form.b_eq.copy() if form.b_eq.size else np.zeros(0)
    c = form.c.copy()

    extra_rows: List[np.ndarray] = []
    extra_rhs: List[float] = []
    for i, (lo, hi) in enumerate(form.bounds):
        if lo == -np.inf or lo is None:
            raise ValueError("simplex backend requires finite lower bounds")
        shift[i] = lo
        if hi is not None and np.isfinite(hi):
            row = np.zeros(n)
            row[i] = 1.0
            extra_rows.append(row)
            extra_rhs.append(hi - lo)
    # Shift rhs by A @ shift.
    if a_ub.shape[0]:
        b_ub = b_ub - a_ub @ shift
    if a_eq.shape[0]:
        b_eq = b_eq - a_eq @ shift
    if extra_rows:
        a_ub = np.vstack([a_ub, np.array(extra_rows)]) if a_ub.size else np.array(extra_rows)
        b_ub = np.concatenate([b_ub, np.array(extra_rhs)])
    return a_ub, b_ub, a_eq, b_eq, c, shift, n


def solve_simplex(
    model: Model,
    form: Optional[StandardForm] = None,
    warm_basis: Optional[BasisLabels] = None,
) -> Solution:
    """Solve a :class:`Model` with the dense two-phase tableau simplex.

    ``form`` lets callers reuse an already-lowered standard form.  With
    ``warm_basis`` (a previous :attr:`Solution.basis`), the solver tries
    to start phase 2 directly from that basis — falling back to the
    ordinary two-phase cold start whenever the labels no longer resolve
    to a feasible basis of the current model.
    """
    if form is None:
        form = model.to_standard_form()
    try:
        a_ub, b_ub, a_eq, b_eq, c, shift, n = _prepare(form)
    except ValueError:
        return Solution(SolveStatus.ERROR, backend=BACKEND_NAME)

    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    if m == 0:
        return solve_unconstrained(form, c, BACKEND_NAME)

    # Build the combined constraint matrix with slacks for <= rows and
    # artificials for every row (slack column suffices as the initial basic
    # variable when its rhs is non-negative, otherwise flip the row).
    n_slack = m_ub
    rows = np.zeros((m, n + n_slack))
    rhs = np.zeros(m)
    if m_ub:
        rows[:m_ub, :n] = a_ub
        rows[np.arange(m_ub), n + np.arange(m_ub)] = 1.0
        rhs[:m_ub] = b_ub
    if m_eq:
        rows[m_ub:, :n] = a_eq
        rhs[m_ub:] = b_eq
    a_ub = a_eq = None  # free the pre-assembly copies at scale-tier sizes
    # Normalize negative rhs.
    flip = rhs < 0
    if np.any(flip):
        rows[flip, :] *= -1.0
        rhs[flip] *= -1.0

    # Slack-column semantics for basis labels: ub rows are the model's
    # constraint rows followed by one upper-bound row per finite-bounded
    # variable (in variable order), see _prepare.
    m_ub_con = form.a_ub.shape[0]
    bound_row_vars = [
        var.name
        for i, var in enumerate(form.variables)
        if form.bounds[i][1] is not None and np.isfinite(form.bounds[i][1])
    ]
    max_iter = _MAX_ITER_FACTOR * (m + n + n_slack + m)

    if warm_basis is not None:
        warm = _attempt_warm(
            warm_basis,
            rows,
            rhs,
            c,
            shift,
            form,
            n,
            n_slack,
            m_ub_con,
            bound_row_vars,
            max_iter,
        )
        if warm is not None:
            count("lp_phase1_skipped")
            return warm

    # Identify rows whose slack can serve as the initial basis (slack
    # coefficient +1 after normalization); then crash singleton
    # structural columns onto the rest; only leftovers get artificials.
    basis: List[int] = []
    needs_artificial: List[int] = []
    for i in range(m):
        if i < m_ub and rows[i, n + i] > 0.5:
            basis.append(n + i)
        else:
            needs_artificial.append(i)
            basis.append(-1)

    # Crash: a structural column with exactly one nonzero, positive
    # after normalization, is a valid basic column for its row (rhs is
    # >= 0).  Same rule, same ascending-column order as the revised
    # simplex (`_crash_singletons`) — that parity keeps the two
    # solvers on the same pivot path.  The crash row is rescaled to
    # make the column a unit column, but only inside the tableau; the
    # `rows` array stays untouched for the finalizing basis re-solve.
    crash_rows: List[Tuple[int, float]] = []
    if needs_artificial:
        nz_r, nz_c = np.nonzero(rows[:, :n])
        counts = np.bincount(nz_c, minlength=n)
        singleton = counts[nz_c] == 1
        pending = set(needs_artificial)
        s_rows, s_cols = nz_r[singleton], nz_c[singleton]
        for k in np.argsort(s_cols, kind="stable").tolist():
            i, j = int(s_rows[k]), int(s_cols[k])
            value = rows[i, j]
            if value > _EPS and i in pending:
                basis[i] = j
                pending.discard(i)
                crash_rows.append((i, float(value)))
        needs_artificial = sorted(pending)

    n_art = len(needs_artificial)
    total = n + n_slack + n_art
    max_iter = _MAX_ITER_FACTOR * (m + total)

    # Phase 1.
    if n_art:
        full = np.zeros((m, total))
        full[:, : n + n_slack] = rows
        for k, i in enumerate(needs_artificial):
            full[i, n + n_slack + k] = 1.0
            basis[i] = n + n_slack + k
        c1 = np.zeros(total)
        c1[n + n_slack :] = 1.0
        tab = _Tableau(full, rhs, c1)
        full = None
        tab.basis = list(basis)
        for i, value in crash_rows:
            tab.table[i, :] /= value
        tab.price_out()
        status = tab.run(max_iter)
        if status != "optimal":
            return Solution(SolveStatus.ERROR, backend=BACKEND_NAME)
        # Feasibility check: every artificial basic variable must be ~ 0.
        art_value = sum(
            tab.table[row, total]
            for row, col in enumerate(tab.basis)
            if col >= n + n_slack
        )
        if art_value > 1e-6:
            return Solution(SolveStatus.INFEASIBLE, backend=BACKEND_NAME)
        # Drive remaining artificial variables out of the basis if possible.
        for row in range(m):
            if tab.basis[row] >= n + n_slack:
                pivot_col = -1
                for j in range(n + n_slack):
                    if abs(tab.table[row, j]) > _EPS:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    tab.pivot(row, pivot_col)
        work = tab.table[:m, : n + n_slack]
        work_rhs = tab.table[:m, total]
        basis = [b if b < n + n_slack else -1 for b in tab.basis]
        # Rows still basic in an artificial are redundant zero rows; keep
        # them with a harmless slack basis if any, else drop.
        keep = [i for i in range(m) if basis[i] >= 0]
        work = work[keep]
        work_rhs = work_rhs[keep]
        basis = [basis[i] for i in keep]
        iterations1 = tab.iterations
        source_rows, source_rhs = rows[keep], rhs[keep]
    else:
        work = rows
        work_rhs = rhs
        iterations1 = 0
        source_rows, source_rhs = rows, rhs

    # Phase 2.
    c2 = np.zeros(n + n_slack)
    c2[:n] = c
    tab2 = _Tableau(work, work_rhs, c2)
    tab2.basis = list(basis)
    if not n_art:
        # No phase 1 ran: apply the crash-row rescale here (when phase 1
        # ran, its tableau was rescaled and ``work`` inherited it).
        for i, value in crash_rows:
            tab2.table[i, :] /= value
    tab2.price_out()
    status = tab2.run(max_iter)
    if status not in ("optimal", "unbounded"):
        return Solution(SolveStatus.ERROR, backend=BACKEND_NAME)
    count("lp_phase1_iterations", iterations1)
    count("lp_phase1_skipped", int(iterations1 == 0))
    if status == "unbounded":
        return Solution(SolveStatus.UNBOUNDED, backend=BACKEND_NAME)
    return _extract(
        tab2,
        c,
        shift,
        form,
        n,
        m_ub_con,
        bound_row_vars,
        iterations1,
        source_rows,
        source_rhs,
    )


def _basis_labels(
    basis_cols: List[int],
    n: int,
    form: StandardForm,
    m_ub_con: int,
    bound_row_vars: List[str],
) -> BasisLabels:
    labels: List[Tuple[str, object]] = []
    for col in basis_cols:
        if col < n:
            labels.append(("v", form.variables[col].name))
        elif col - n < m_ub_con:
            labels.append(("s", col - n))
        else:
            labels.append(("b", bound_row_vars[col - n - m_ub_con]))
    return tuple(labels)


def _extract(
    tab: _Tableau,
    c: np.ndarray,
    shift: np.ndarray,
    form: StandardForm,
    n: int,
    m_ub_con: int,
    bound_row_vars: List[str],
    prior_iterations: int,
    source_rows: Optional[np.ndarray] = None,
    source_rhs: Optional[np.ndarray] = None,
) -> Solution:
    x = np.zeros(tab.n)
    xb = (
        finalize_basic_solution(source_rows[:, tab.basis], source_rhs)
        if source_rows is not None
        else None
    )
    if xb is not None:
        x[tab.basis] = xb
    else:
        for row, col in enumerate(tab.basis):
            x[col] = tab.table[row, tab.n]
    values = {
        var: float(x[i] + shift[i]) for i, var in enumerate(form.variables)
    }
    objective = float(c @ x[:n]) + float(c @ shift) + form.objective_offset
    sol = Solution(SolveStatus.OPTIMAL, objective, values, BACKEND_NAME)
    sol.iterations = prior_iterations + tab.iterations
    sol.basis = _basis_labels(tab.basis, n, form, m_ub_con, bound_row_vars)
    return sol


def _attempt_warm(
    warm_basis: BasisLabels,
    rows: np.ndarray,
    rhs: np.ndarray,
    c: np.ndarray,
    shift: np.ndarray,
    form: StandardForm,
    n: int,
    n_slack: int,
    m_ub_con: int,
    bound_row_vars: List[str],
    max_iter: int,
) -> Optional[Solution]:
    """Try to start phase 2 directly from a previous solve's basis.

    Resolves the labels against the current column layout, crashes the
    tableau with one dense solve, and runs phase 2.  Returns ``None``
    (caller falls back to the two-phase cold start) when any label no
    longer resolves, the basis matrix is singular, or the basic point is
    infeasible for the current constraints.
    """
    m = rows.shape[0]
    if len(warm_basis) != m:
        return None
    name_to_col: Dict[str, int] = {
        var.name: i for i, var in enumerate(form.variables)
    }
    bound_col: Dict[str, int] = {
        name: n + m_ub_con + k for k, name in enumerate(bound_row_vars)
    }
    cols: List[int] = []
    for kind, key in warm_basis:
        if kind == "v":
            col = name_to_col.get(key)
        elif kind == "s":
            col = n + key if isinstance(key, int) and 0 <= key < m_ub_con else None
        elif kind == "b":
            col = bound_col.get(key)
        else:
            return None
        if col is None:
            return None
        cols.append(col)
    if len(set(cols)) != m:
        return None
    basis_matrix = rows[:, cols]
    try:
        xb = np.linalg.solve(basis_matrix, rhs)
        reduced = np.linalg.solve(basis_matrix, rows)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(xb)) or np.any(xb < 0):
        return None
    c2 = np.zeros(n + n_slack)
    c2[:n] = c
    tab = _Tableau(reduced, xb, c2)
    tab.basis = list(cols)
    tab.price_out()
    status = tab.run(max_iter)
    if status == "unbounded":
        return Solution(SolveStatus.UNBOUNDED, backend=BACKEND_NAME)
    if status != "optimal":
        return None
    return _extract(
        tab, c, shift, form, n, m_ub_con, bound_row_vars, 0, rows, rhs
    )


__all__ = ["solve_simplex"]
