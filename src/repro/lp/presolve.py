"""LP presolve: deterministic reductions over the CSR standard form.

:func:`presolve_form` shrinks a :class:`~repro.lp.model.StandardForm`
before any backend sees it, and returns a :class:`PresolvedProblem`
whose :meth:`~PresolvedProblem.postsolve` reconstructs the **full**
primal solution — every original variable's value, the objective
recomputed from the original costs, and (best-effort) full-problem
basis labels — from the reduced solve.  The reduction pipeline, in
order:

* **fixed columns** (``lower == upper``): substituted into every
  right-hand side and removed;
* **empty columns**: fixed at whichever finite bound their cost
  prefers.  A negatively-priced empty column with an infinite upper
  bound is deliberately *kept* so the backend reaches its own
  UNBOUNDED verdict only after phase 1 has had its say — exactly the
  status order an un-presolved solve reports;
* **empty rows**: dropped when satisfiable, INFEASIBLE when the
  residual right-hand side is negative beyond the backends' phase-1
  tolerance;
* **singleton rows** (one nonzero): folded into the variable's bounds
  when the tightened interval stays consistent, else left to the
  backend so borderline-infeasible inputs keep their un-presolved
  status;
* **twin rows** — the SherLock-shaped reduction that carries the
  scale-tier speedup: ``<=`` rows identical except for one *private*
  column (a column with a single nonzero anywhere in the system,
  ``[0, inf)`` bounds, positive cost, negative row coefficient — the
  ``max0`` auxiliary of a Mostly-Protected window row) are merged
  into their lowest-index representative, whose auxiliary inherits
  the group's summed cost.  Exact: with cost ``c_i > 0`` every
  ``aux_i`` sits at ``max(0, (core·x - b)/(-a))`` at any optimum, so
  the group's objective contribution is ``(sum c_i)`` times that one
  envelope value — the representative's;
* **duplicate/dominated rows**: coefficient-identical ``<=`` rows
  keep only the smallest right-hand side;
* **equilibration scaling**: power-of-two row/column scales (exact in
  floating point; the identity on SherLock's ``±1`` matrices).

Postsolve's basis reconstruction labels each eliminated row/column
(`("s", row)` slack for dropped redundant rows, the private auxiliary
or the slack for twin rows depending on whether the group's envelope
is active, bound-row slacks for eliminated columns); it returns
``None`` — downstream warm starts then simply cold-start — whenever a
reduction with no exact label mapping ran (bound tightening, dropped
equality rows, an artificial in the reduced basis).

Presolve is orchestrated by :func:`repro.lp.backends.solve` behind its
own gate: off below 4096 real columns
(``backends._PRESOLVE_MIN_COLUMNS``), so paper-sized LPs are solved
exactly as lowered, and on at or above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import StandardForm
from .solution import Solution, SolveStatus
from .variable import Variable

_EPS = 1e-9
#: Presolve-time infeasibility threshold, matching the backends'
#: phase-1 artificial tolerance (``art_value > 1e-6``) so borderline
#: inputs get the same status with and without presolve.
_FEAS_TOL = 1e-6

# Column dispositions.
_KEEP, _FIXED, _TWIN = 0, 1, 2
# Row dispositions for dropped ub rows: basic slack (empty, redundant
# singleton, duplicate) vs. twin (auxiliary or slack, decided at
# postsolve from the representative's value).
_ROW_KEEP, _ROW_SLACK, _ROW_TWIN = 0, 1, 2


def _segment_abs_max(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment ``max(|data|)`` of a CSR/CSC axis, zeros for empty
    segments (no densification)."""
    out = np.zeros(len(indptr) - 1)
    lens = np.diff(indptr)
    nz = lens > 0
    if data.size and np.any(nz):
        out[nz] = np.maximum.reduceat(np.abs(data), indptr[:-1][nz])
    return out


def _pow2_scales(abs_max: np.ndarray) -> np.ndarray:
    """Nearest power-of-two normalizers (1.0 where a segment is empty).

    Powers of two make every scale multiplication exact in binary
    floating point, so scaling never perturbs reported values."""
    scales = np.ones_like(abs_max)
    nz = abs_max > 0
    scales[nz] = np.exp2(-np.rint(np.log2(abs_max[nz])))
    return scales


@dataclass
class PresolvedProblem:
    """A reduced standard form plus the exact postsolve mapping."""

    form: StandardForm
    reduced: StandardForm
    #: INFEASIBLE detected during reduction; ``None`` means solve the
    #: reduced problem.
    status: Optional[SolveStatus] = None
    #: No reduction applied — callers should solve the original form
    #: directly (skipping postsolve keeps the solve bit-identical).
    identity: bool = False
    rows_eliminated: int = 0
    cols_eliminated: int = 0
    #: Per-original-column disposition and metadata.
    col_action: Optional[np.ndarray] = None
    col_value: Optional[np.ndarray] = None
    twin_rep: Dict[int, int] = field(default_factory=dict)
    kept_cols: List[int] = field(default_factory=list)
    #: Per-original-ub-row disposition; dropped twin rows map to their
    #: own private auxiliary column.
    row_action: Optional[np.ndarray] = None
    twin_row_aux: Dict[int, int] = field(default_factory=dict)
    kept_rows_ub: List[int] = field(default_factory=list)
    #: Power-of-two column scales over reduced columns (``None`` when
    #: scaling was the identity).
    col_scale: Optional[np.ndarray] = None
    #: Whether eliminations kept an exact basis-label mapping.
    basis_ok: bool = True

    # -- postsolve ---------------------------------------------------------

    def _full_values(self, solution: Solution) -> np.ndarray:
        red_vars = self.reduced.variables
        x_red = np.fromiter(
            (solution.values.get(v, 0.0) for v in red_vars),
            np.float64,
            len(red_vars),
        )
        if self.col_scale is not None:
            x_red = x_red * self.col_scale
        pos = {j: k for k, j in enumerate(self.kept_cols)}
        n = len(self.form.variables)
        x = np.empty(n)
        for j in range(n):
            action = self.col_action[j]
            if action == _KEEP:
                x[j] = x_red[pos[j]]
            elif action == _FIXED:
                x[j] = self.col_value[j]
            else:  # _TWIN: the representative's envelope value
                x[j] = x_red[pos[self.twin_rep[j]]]
        return x

    def _map_basis_back(
        self, basis, x_full: np.ndarray
    ) -> Optional[tuple]:
        if not self.basis_ok or basis is None:
            return None
        form = self.form
        labels: List[Tuple[str, object]] = []
        for kind, key in basis:
            if kind == "s":
                if not (
                    isinstance(key, int)
                    and 0 <= key < len(self.kept_rows_ub)
                ):
                    return None
                labels.append(("s", self.kept_rows_ub[key]))
            elif kind in ("v", "b"):
                labels.append((kind, key))
            else:  # an artificial stuck in the reduced basis
                return None
        # Dropped ub rows: slack, or the twin's own auxiliary when the
        # group's envelope is active (the representative sits above 0).
        for r, action in enumerate(self.row_action):
            if action == _ROW_SLACK:
                labels.append(("s", r))
            elif action == _ROW_TWIN:
                aux = self.twin_row_aux[r]
                rep = self.twin_rep[aux]
                if x_full[rep] > _EPS:
                    labels.append(("v", form.variables[aux].name))
                else:
                    labels.append(("s", r))
        # Eliminated columns with a finite original upper bound had a
        # bound row in the full problem: the variable itself is basic
        # there when it sits above its lower bound, else the slack.
        for j, action in enumerate(self.col_action):
            if action == _KEEP:
                continue
            lo, hi = form.bounds[j]
            if hi is None or not np.isfinite(hi):
                continue
            name = form.variables[j].name
            if x_full[j] > lo + _EPS:
                labels.append(("v", name))
            else:
                labels.append(("b", name))
        a_ub = form.a_ub
        m_ub_con = a_ub.shape[0]
        n_bound = sum(
            1
            for _, hi in form.bounds
            if hi is not None and np.isfinite(hi)
        )
        m_eq = form.a_eq.shape[0]
        if len(labels) != m_ub_con + n_bound + m_eq:
            return None
        return tuple(labels)

    def postsolve(self, solution: Solution) -> Solution:
        """Lift a reduced-problem solution back to the original form."""
        if self.identity or solution.status is not SolveStatus.OPTIMAL:
            return solution
        x = self._full_values(solution)
        c = np.asarray(self.form.c, dtype=np.float64)
        values = {
            var: float(x[i])
            for i, var in enumerate(self.form.variables)
        }
        objective = float(c @ x) + self.form.objective_offset
        sol = Solution(
            SolveStatus.OPTIMAL, objective, values, solution.backend
        )
        sol.iterations = solution.iterations
        sol.basis = self._map_basis_back(solution.basis, x)
        return sol

    # -- warm-basis forward mapping ---------------------------------------

    def map_warm_basis(self, warm_basis) -> Optional[tuple]:
        """Translate full-problem basis labels (a previous round's
        postsolved basis) into reduced-problem labels, dropping labels
        for eliminated rows/columns.  The result is usually shorter
        than the reduced row count, and the revised simplex then
        cold-starts from its crash basis."""
        if warm_basis is None or self.identity:
            return warm_basis
        name_action: Dict[str, int] = {}
        for j, var in enumerate(self.form.variables):
            name_action[var.name] = self.col_action[j]
        row_pos = {r: k for k, r in enumerate(self.kept_rows_ub)}
        out: List[Tuple[str, object]] = []
        for kind, key in warm_basis:
            if kind == "s":
                pos = row_pos.get(key)
                if pos is not None:
                    out.append(("s", pos))
            elif kind in ("v", "b"):
                if name_action.get(key, _FIXED) == _KEEP:
                    out.append((kind, key))
        return tuple(out) if out else None


def _passthrough(form: StandardForm) -> PresolvedProblem:
    return PresolvedProblem(form=form, reduced=form, identity=True)


def _infeasible(form: StandardForm) -> PresolvedProblem:
    return PresolvedProblem(
        form=form, reduced=form, status=SolveStatus.INFEASIBLE
    )


def presolve_form(form: StandardForm) -> PresolvedProblem:
    """Run the reduction pipeline over ``form``.

    Deterministic: the same form always produces the same reduced
    problem, byte for byte.  Forms the pipeline cannot reason about
    (non-finite lower bounds, no variables) pass through untouched.
    """
    n = len(form.variables)
    if n == 0:
        return _passthrough(form)
    lb = np.array([b[0] for b in form.bounds], dtype=np.float64)
    ub = np.array(
        [np.inf if b[1] is None else b[1] for b in form.bounds],
        dtype=np.float64,
    )
    if not np.all(np.isfinite(lb)):
        return _passthrough(form)

    a_ub, a_eq = form.a_ub, form.a_eq
    m_ub = a_ub.shape[0]
    m_eq = a_eq.shape[0]
    b_ub = np.asarray(form.b_ub, dtype=np.float64).copy()
    b_eq = np.asarray(form.b_eq, dtype=np.float64).copy()
    c = np.asarray(form.c, dtype=np.float64)
    c_work = c.copy()

    col_action = np.zeros(n, dtype=np.int8)
    col_value = np.zeros(n)
    basis_ok = True

    # -- fixed columns ----------------------------------------------------
    fixed = lb == ub
    if np.any(lb > ub):
        over = lb - ub
        if np.any(over > _FEAS_TOL):
            return _infeasible(form)
    if np.any(fixed):
        col_action[fixed] = _FIXED
        col_value[fixed] = lb[fixed]
        sub = np.where(fixed, lb, 0.0)
        if m_ub:
            b_ub -= a_ub @ sub
        if m_eq:
            b_eq -= a_eq @ sub

    # -- column statistics over the whole system --------------------------
    from scipy.sparse import csr_matrix, vstack

    stacked = vstack([a_ub, a_eq], format="csc") if m_eq else a_ub.tocsc()
    col_nnz = np.diff(stacked.indptr)
    single_row = np.full(n, -1, dtype=np.int64)
    single_val = np.zeros(n)
    singles = np.nonzero(col_nnz == 1)[0]
    for j in singles.tolist():
        p = stacked.indptr[j]
        single_row[j] = stacked.indices[p]
        single_val[j] = stacked.data[p]

    # -- empty columns ----------------------------------------------------
    for j in np.nonzero(col_nnz == 0)[0].tolist():
        if col_action[j] != _KEEP:
            continue
        if c[j] >= -_EPS:
            col_action[j] = _FIXED
            col_value[j] = lb[j]
        elif np.isfinite(ub[j]):
            col_action[j] = _FIXED
            col_value[j] = ub[j]
        # else: keep — the backend reports UNBOUNDED only after its
        # own phase 1, preserving the un-presolved status order.

    # -- ub row scan: empty / singleton rows ------------------------------
    row_action = np.zeros(m_ub, dtype=np.int8)
    indptr, indices, data = a_ub.indptr, a_ub.indices, a_ub.data
    entries: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * m_ub
    for r in range(m_ub):
        cols = indices[indptr[r] : indptr[r + 1]]
        vals = data[indptr[r] : indptr[r + 1]]
        live = (vals != 0.0) & (col_action[cols] != _FIXED)
        cols, vals = cols[live], vals[live]
        entries[r] = (cols, vals)
        if cols.size == 0:
            if b_ub[r] < -_FEAS_TOL:
                return _infeasible(form)
            row_action[r] = _ROW_SLACK
            if b_ub[r] < 0:
                basis_ok = False  # slack would sit marginally negative
        elif cols.size == 1:
            j = int(cols[0])
            a = float(vals[0])
            b = float(b_ub[r])
            if a > _EPS:
                new_ub = b / a
                if new_ub >= ub[j]:
                    row_action[r] = _ROW_SLACK  # redundant
                elif new_ub >= lb[j]:
                    ub[j] = new_ub
                    row_action[r] = _ROW_SLACK
                    basis_ok = False  # synthesized bound row
                # else: interval empty — let the backend decide
            elif a < -_EPS:
                new_lb = b / a
                if new_lb <= lb[j]:
                    row_action[r] = _ROW_SLACK  # redundant
                elif new_lb <= ub[j]:
                    lb[j] = new_lb
                    row_action[r] = _ROW_SLACK
                    basis_ok = False

    # -- twin-row merge ---------------------------------------------------
    twin_rep: Dict[int, int] = {}
    twin_row_aux: Dict[int, int] = {}
    kept_now = np.nonzero(row_action == _ROW_KEEP)[0]
    eligible = (
        (col_action == _KEEP)
        & (col_nnz == 1)
        & (lb == 0.0)
        & ~np.isfinite(ub)
        & (c_work > 0.0)
        & (single_val < -_EPS)
        & (single_row < m_ub)
    )
    groups: Dict[tuple, List[Tuple[int, int]]] = {}
    for r in kept_now.tolist():
        cols, vals = entries[r]
        priv = cols[eligible[cols]]
        if priv.size != 1:
            continue
        j = int(priv[0])
        core = cols != j
        key = (
            cols[core].tobytes(),
            vals[core].tobytes(),
            float(b_ub[r]),
            float(single_val[j]),
        )
        groups.setdefault(key, []).append((r, j))
    for members in groups.values():
        if len(members) < 2:
            continue
        rep_row, rep_aux = members[0]
        total = sum(c_work[j] for _, j in members)
        c_work[rep_aux] = total
        for r, j in members[1:]:
            row_action[r] = _ROW_TWIN
            col_action[j] = _TWIN
            twin_rep[j] = rep_aux
            twin_row_aux[r] = j

    # -- duplicate / dominated rows ---------------------------------------
    dup_groups: Dict[tuple, List[int]] = {}
    for r in np.nonzero(row_action == _ROW_KEEP)[0].tolist():
        cols, vals = entries[r]
        dup_groups.setdefault(
            (cols.tobytes(), vals.tobytes()), []
        ).append(r)
    for members in dup_groups.values():
        if len(members) < 2:
            continue
        rhs = [float(b_ub[r]) for r in members]
        keeper = members[int(np.argmin(rhs))]
        for r in members:
            if r != keeper:
                row_action[r] = _ROW_SLACK

    # -- empty equality rows ----------------------------------------------
    eq_keep = np.ones(m_eq, dtype=bool)
    if m_eq:
        eq_live = np.zeros(m_eq, dtype=np.int64)
        ei, ej = a_eq.indptr, a_eq.indices
        ed = a_eq.data
        for r in range(m_eq):
            cols = ej[ei[r] : ei[r + 1]]
            vals = ed[ei[r] : ei[r + 1]]
            eq_live[r] = int(
                np.count_nonzero(
                    (vals != 0.0) & (col_action[cols] != _FIXED)
                )
            )
        for r in np.nonzero(eq_live == 0)[0].tolist():
            if abs(b_eq[r]) > _FEAS_TOL:
                return _infeasible(form)
            eq_keep[r] = False
            basis_ok = False  # the full problem puts an artificial here

    # -- assemble the reduced form ----------------------------------------
    kept_rows_ub = np.nonzero(row_action == _ROW_KEEP)[0]
    kept_cols = np.nonzero(col_action == _KEEP)[0]
    rows_eliminated = int(m_ub - kept_rows_ub.size) + int(
        m_eq - np.count_nonzero(eq_keep)
    )
    cols_eliminated = int(n - kept_cols.size)
    if rows_eliminated == 0 and cols_eliminated == 0:
        # Nothing structural to gain; skip scaling too so the solve is
        # bit-identical to the un-presolved path.
        return _passthrough(form)

    a_ub_red = a_ub[kept_rows_ub].tocsc()[:, kept_cols].tocsr()
    b_ub_red = b_ub[kept_rows_ub]
    if m_eq:
        a_eq_red = a_eq[eq_keep].tocsc()[:, kept_cols].tocsr()
        b_eq_red = b_eq[eq_keep]
    else:
        a_eq_red = csr_matrix((0, kept_cols.size))
        b_eq_red = np.zeros(0)
    c_red = c_work[kept_cols]
    lb_red = lb[kept_cols]
    ub_red = ub[kept_cols]

    # -- equilibration scaling (powers of two, exact) ---------------------
    col_scale: Optional[np.ndarray] = None
    both = (
        vstack([a_ub_red, a_eq_red], format="csr")
        if a_eq_red.shape[0]
        else a_ub_red
    )
    r_scale = _pow2_scales(_segment_abs_max(both.data, both.indptr))
    if np.any(r_scale != 1.0):
        from scipy.sparse import diags

        m_red_ub = a_ub_red.shape[0]
        a_ub_red = (diags(r_scale[:m_red_ub]) @ a_ub_red).tocsr()
        b_ub_red = b_ub_red * r_scale[:m_red_ub]
        if a_eq_red.shape[0]:
            a_eq_red = (diags(r_scale[m_red_ub:]) @ a_eq_red).tocsr()
            b_eq_red = b_eq_red * r_scale[m_red_ub:]
        both = (
            vstack([a_ub_red, a_eq_red], format="csc")
            if a_eq_red.shape[0]
            else a_ub_red.tocsc()
        )
    else:
        both = both.tocsc()
    c_scale = _pow2_scales(_segment_abs_max(both.data, both.indptr))
    if np.any(c_scale != 1.0):
        from scipy.sparse import diags

        a_ub_red = (a_ub_red @ diags(c_scale)).tocsr()
        if a_eq_red.shape[0]:
            a_eq_red = (a_eq_red @ diags(c_scale)).tocsr()
        c_red = c_red * c_scale
        lb_red = lb_red / c_scale
        ub_red = ub_red / c_scale
        col_scale = c_scale

    offset = form.objective_offset
    fixed_mask = col_action == _FIXED
    if np.any(fixed_mask):
        offset += float(c[fixed_mask] @ col_value[fixed_mask])

    variables_red = [
        Variable(
            form.variables[j].name,
            float(lb_red[k]),
            None if not np.isfinite(ub_red[k]) else float(ub_red[k]),
            index=k,
        )
        for k, j in enumerate(kept_cols.tolist())
    ]
    reduced = StandardForm(
        c=c_red,
        a_ub=a_ub_red,
        b_ub=b_ub_red,
        a_eq=a_eq_red,
        b_eq=b_eq_red,
        bounds=[(v.lower, v.upper) for v in variables_red],
        variables=variables_red,
        objective_offset=offset,
    )
    return PresolvedProblem(
        form=form,
        reduced=reduced,
        rows_eliminated=rows_eliminated,
        cols_eliminated=cols_eliminated,
        col_action=col_action,
        col_value=col_value,
        twin_rep=twin_rep,
        kept_cols=kept_cols.tolist(),
        row_action=row_action,
        twin_row_aux=twin_row_aux,
        kept_rows_ub=kept_rows_ub.tolist(),
        col_scale=col_scale,
        basis_ok=basis_ok,
    )


__all__ = ["PresolvedProblem", "presolve_form"]
