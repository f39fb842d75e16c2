"""Sparse revised simplex over an LU-factorized basis.

The built-in backend.  It:

* assembles the phase-1/phase-2 constraint matrix directly from the
  ``csr_matrix`` standard form (``scipy.sparse`` block operations; the
  constraint matrix is **never** densified — a source-scan test guards
  the hot path);
* keeps only the *basis* factorized (:class:`~repro.lp.factor.LUFactor`:
  sparse LU plus an eta file, refactorized periodically), and per
  iteration does one btran (pricing duals), one sparse
  ``A^T y`` product (reduced costs), and one ftran (entering column);
* prices with Bland's rule (first improving column) at every LP size,
  the same rule the dense-tableau test oracle
  (``tests/oracles/simplex.py``) uses.  Bland's rule is both the
  anti-cycling guarantee *and* the byte-identity guarantee:
  entering-column selection depends only on the sign of each reduced
  cost, so the LU-based arithmetic here and the tableau arithmetic of
  the oracle make the same pivot decisions and visit the same vertices.
  (Dantzig pricing was measured to break that: its argmin is decided by
  ulp-level comparisons between reduced costs computed by different
  arithmetic, and on the degenerate SherLock LPs the two solvers then
  settle on different — equally optimal — vertices.)  Large LPs are
  HiGHS's job (``backend="auto"``); this solver stays the from-scratch
  reference that agrees with the oracle bit for bit;
* runs the textbook phase-1 (artificial variables for rows without a
  usable slack) / phase-2 driver.  Artificial columns are virtual unit
  columns — never materialized; in phase 2 a still-basic artificial is
  pinned at zero by the ratio test (any pivot that would move it forces
  ``theta = 0`` and drives it out of the basis);
* **crashes a singleton basis** before resorting to artificials: a
  structural column with exactly one (positive) nonzero can serve as
  the basic column of its row directly, since the normalized rhs is
  non-negative.  On SherLock-shaped LPs every Mostly-Protected window
  row carries such a column (the ``max0`` auxiliary variable), so the
  crash eliminates phase 1 entirely — the asymptotically dominant cost
  at scale-tier sizes.  The tableau oracle applies the *same* rule in
  the same column order, so both still walk the same pivot path.

Cold-solve cost is kept down by blockwise Bland pricing with early
exit over CSR column slices (bit-identical to the full product — CSR
matvec is an independent sequential dot per column), an incrementally
maintained basic-cost vector, a ratio test that enumerates candidate
rows via ``np.nonzero`` and replays the exact fuzzy tie-break chain
over that (small) subset, a packed sparse eta file, reuse of the
previous factorization's column ordering, and a batched ftran that
combines the basic-solution refresh with the entering-column solve at
refactorization points (see :mod:`repro.lp.factor`).

Column layout, row layout and :data:`~repro.lp.solution.BasisLabels`
semantics are shared with the tableau oracle, so a basis emitted by
one warm-starts the other, and
:class:`~repro.core.encoder.IncrementalEncoder`'s round-over-round
warm-start path carries one solve's basis into the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..metrics import count
from .factor import LUFactor, SingularBasisError
from .model import Model, StandardForm
from .solution import BasisLabels, Solution, SolveStatus

#: Backend name this module reports on its solutions.
BACKEND_NAME = "revised-simplex"

_EPS = 1e-9
_MAX_ITER_FACTOR = 50

#: Columns priced per block in the Bland scan (early exit on the first
#: block containing a negative reduced cost).
_PRICE_BLOCK = 4096

#: A reused column ordering is abandoned once the factor's fill exceeds
#: this multiple of the last fresh (COLAMD) factorization's fill.
_FILL_DEGRADATION = 2.0

#: Basis size at which :func:`finalize_basic_solution` switches from the
#: dense LAPACK solve to a sparse LU.  The tableau test oracle routes
#: through that function with the same basis, so the switch point being
#: shared is what keeps the two bit-identical at every size.
_SPARSE_FINALIZE_MIN = 2048


def solve_unconstrained(form: StandardForm, c: np.ndarray, backend: str):
    """Solve a model with no rows: every variable sits at whichever finite
    bound its cost prefers.

    The unboundedness test and the value rule use the same epsilon and
    the same ``np.isfinite`` finiteness check, so a cost within
    ``(-eps, 0)`` against an infinite upper bound stays at its lower
    bound instead of leaking ``inf`` (or ``None``) into the assignment.
    """
    values = {}
    for i, var in enumerate(form.variables):
        hi = form.bounds[i][1]
        hi_finite = hi is not None and np.isfinite(hi)
        if c[i] < -_EPS:
            if not hi_finite:
                return Solution(SolveStatus.UNBOUNDED, backend=backend)
            values[var] = float(hi)
        else:
            values[var] = float(form.bounds[i][0])
    obj = float(sum(c[v.index] * values[v] for v in form.variables))
    return Solution(
        SolveStatus.OPTIMAL,
        obj + form.objective_offset,
        values,
        backend,
        basis=(),
    )


def finalize_basic_solution(
    basis_matrix, rhs: np.ndarray
) -> Optional[np.ndarray]:
    """Recompute the basic solution ``B xb = rhs`` fresh from the original
    column data of the final basis.

    Called right before extracting a solution.  Each algorithm reaches
    the optimal basis carrying its own accumulated roundoff (LU ftran +
    eta updates here, tableau elimination in the test oracle);
    re-solving once from the untouched column data means two solvers
    that agree on the *basis* also agree on every reported value and on
    the objective bit-for-bit.  Returns ``None`` (caller keeps its
    iterate) when the recomputation fails.

    Below :data:`_SPARSE_FINALIZE_MIN` rows ``basis_matrix`` is a dense
    array and the solve is the dense LAPACK one; at and above it, it is
    anything ``csc_matrix`` accepts and the solve is a sparse LU — a
    dense ``m³`` solve at scale-tier sizes would cost more than the
    whole simplex run.  The branch depends only on ``m``, so every
    caller takes the same one.
    """
    from scipy import sparse

    m = basis_matrix.shape[0]
    rhs = np.asarray(rhs, dtype=np.float64)
    if m >= _SPARSE_FINALIZE_MIN:
        try:
            mat = sparse.csc_matrix(basis_matrix)
            xb = sparse.linalg.splu(mat).solve(rhs)
        except (RuntimeError, ValueError, MemoryError):
            return None
    else:
        try:
            xb = np.linalg.solve(basis_matrix, rhs)
        except np.linalg.LinAlgError:
            return None
    if not np.all(np.isfinite(xb)):
        return None
    # Flush roundoff-scale negativity exactly as the iterations do.
    np.copyto(xb, 0.0, where=(xb < 0) & (xb > -1e-9))
    return xb


@dataclass
class _Problem:
    """The assembled phase-1/2 problem in ``x >= 0`` form.

    ``matrix`` is the sign-normalized ``m × (n + n_slack)`` constraint
    matrix in CSC (structural columns, then one slack per ub row);
    artificial columns are virtual (``col >= n_real`` maps to the unit
    vector of row ``art_rows[col - n_real]``).
    """

    matrix: object  # scipy.sparse.csc_matrix
    matrix_t: object  # CSR transpose for pricing products
    rhs: np.ndarray
    c: np.ndarray  # original objective over structural columns
    shift: np.ndarray
    n: int  # structural columns
    n_slack: int
    m_ub: int  # ub rows (constraint rows + bound rows)
    m_ub_con: int  # ub rows that come from model constraints
    bound_row_vars: List[str]
    form: StandardForm
    art_rows: List[int] = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_real(self) -> int:
        return self.n + self.n_slack

    def column(self, col: int) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse (indices, values) of any column, artificials included."""
        if col < self.n_real:
            a = self.matrix
            lo, hi = a.indptr[col], a.indptr[col + 1]
            return a.indices[lo:hi], a.data[lo:hi]
        row = self.art_rows[col - self.n_real]
        return (
            np.array([row], dtype=np.int64),
            np.array([1.0], dtype=np.float64),
        )

    def column_dense(self, col: int) -> np.ndarray:
        idx, vals = self.column(col)
        out = np.zeros(self.m)
        out[idx] = vals
        return out


@dataclass
class _Counters:
    """Factorization observability, counted by :func:`_extract`."""

    factorizations: int = 0
    refactorizations: int = 0
    eta_updates: int = 0
    eta_entries: int = 0


@dataclass
class _Timers:
    """Cold-solve phase breakdown, counted by :func:`_extract`."""

    factorize_s: float = 0.0
    ftran_btran_s: float = 0.0
    pricing_s: float = 0.0


@dataclass
class _FactorContext:
    """Ordering reuse across refactorizations of one solve: the last
    effective column ordering, and the fill of the last fresh (COLAMD)
    factorization it is judged against."""

    order: Optional[np.ndarray] = None
    fresh_fill: int = 0


def _prepare_sparse(form: StandardForm) -> _Problem:
    """The phase-1/2 rows in ``x >= 0`` form, assembled sparse.

    Rows are the model ub rows, one bound row per finite upper bound in
    variable order, then the eq rows; one slack per ub row; negative-rhs
    rows are sign-normalized.  The tableau oracle assembles the same
    layout, so basis labels mean the same thing in both.
    """
    from scipy import sparse

    n = len(form.variables)
    shift = np.zeros(n)
    bound_cols: List[int] = []
    bound_rhs: List[float] = []
    for i, (lo, hi) in enumerate(form.bounds):
        if lo is None or not np.isfinite(lo):
            raise ValueError("simplex backend requires finite lower bounds")
        shift[i] = lo
        if hi is not None and np.isfinite(hi):
            bound_cols.append(i)
            bound_rhs.append(hi - lo)

    a_ub, a_eq = form.a_ub, form.a_eq
    m_ub_con = a_ub.shape[0]
    m_eq = a_eq.shape[0]
    n_bound = len(bound_cols)
    m_ub = m_ub_con + n_bound
    m = m_ub + m_eq

    b_ub = (
        np.asarray(form.b_ub, dtype=np.float64) - a_ub @ shift
        if m_ub_con
        else np.zeros(0)
    )
    b_eq = (
        np.asarray(form.b_eq, dtype=np.float64) - a_eq @ shift
        if m_eq
        else np.zeros(0)
    )
    rhs = np.concatenate([b_ub, np.asarray(bound_rhs), b_eq])

    bound_block = sparse.csr_matrix(
        (
            np.ones(n_bound),
            (np.arange(n_bound), np.asarray(bound_cols, dtype=np.int64)),
        ),
        shape=(n_bound, n),
    )
    struct = sparse.vstack(
        [a_ub, bound_block, a_eq], format="csr"
    )
    slack = sparse.csr_matrix(
        (np.ones(m_ub), (np.arange(m_ub), np.arange(m_ub))),
        shape=(m, m_ub),
    )
    matrix = sparse.hstack([struct, slack], format="csr")

    # Normalize negative rhs (same flip the tableau applies row-wise).
    signs = np.where(rhs < 0, -1.0, 1.0)
    if m and np.any(signs < 0):
        matrix = sparse.diags(signs) @ matrix
    rhs = rhs * signs

    bound_row_vars = [form.variables[i].name for i in bound_cols]
    matrix = matrix.tocsc()
    return _Problem(
        matrix=matrix,
        matrix_t=matrix.T.tocsr(),
        rhs=rhs,
        c=np.asarray(form.c, dtype=np.float64).copy(),
        shift=shift,
        n=n,
        n_slack=m_ub,
        m_ub=m_ub,
        m_ub_con=m_ub_con,
        bound_row_vars=bound_row_vars,
        form=form,
    )


def _factor(
    problem: _Problem,
    basis: List[int],
    counters: _Counters,
    timers: _Timers,
    ctx: _FactorContext,
) -> Optional[LUFactor]:
    columns = [problem.column(col) for col in basis]
    order = ctx.order
    t0 = perf_counter()
    try:
        lu = LUFactor(columns, col_order=order)
    except SingularBasisError:
        lu = None
        if order is not None:
            # A reused ordering can go numerically bad where a fresh
            # COLAMD factorization would not; retry once from scratch.
            try:
                lu = LUFactor(columns)
            except SingularBasisError:
                lu = None
    timers.factorize_s += perf_counter() - t0
    if lu is None:
        return None
    counters.factorizations += 1
    if lu.reused_ordering:
        ctx.order = lu.ordering
        if ctx.fresh_fill and lu.fill_nnz > _FILL_DEGRADATION * ctx.fresh_fill:
            ctx.order = None  # fill degraded: reorder next time
    else:
        ctx.fresh_fill = lu.fill_nnz
        ctx.order = lu.ordering
    return lu


class _IterationState:
    """One phase's basis, factorization and basic solution."""

    def __init__(
        self,
        problem: _Problem,
        basis: List[int],
        lu: LUFactor,
        counters: _Counters,
        timers: _Timers,
        ctx: _FactorContext,
    ) -> None:
        self.problem = problem
        self.basis = basis
        self.lu = lu
        self.counters = counters
        self.timers = timers
        self.ctx = ctx
        self.xb = self._basic_solution()
        self.iterations = 0

    def _basic_solution(self) -> np.ndarray:
        t0 = perf_counter()
        xb = self.lu.ftran(self.problem.rhs)
        self.timers.ftran_btran_s += perf_counter() - t0
        # Flush roundoff-scale negativity so the ratio test stays sane.
        np.copyto(xb, 0.0, where=(xb < 0) & (xb > -1e-9))
        return xb

    def refactor(self, recompute_xb: bool = True) -> bool:
        lu = _factor(
            self.problem, self.basis, self.counters, self.timers, self.ctx
        )
        if lu is None:
            return False
        self.counters.refactorizations += 1
        self.lu = lu
        if recompute_xb:
            self.xb = self._basic_solution()
        return True


def _iterate(
    state: _IterationState,
    costs_real: np.ndarray,
    art_cost: float,
    max_iter: int,
    pin_artificials: bool,
) -> str:
    """Run revised-simplex pivots until optimal/unbounded/limit.

    ``costs_real`` covers the real (structural + slack) columns;
    every artificial column costs ``art_cost``.  With
    ``pin_artificials`` (phase 2), a basic artificial sits at zero and
    any pivot touching its row is forced degenerate, which ejects it.

    Pivot selection is Bland's rule on both ends (first column with a
    negative reduced cost; leaving-row ties broken by the smallest basic
    column), matching the tableau oracle pivot-for-pivot — see the
    module docstring for why this is load-bearing.
    """
    problem = state.problem
    m = problem.m
    n_real = problem.n_real
    matrix_t = problem.matrix_t
    timers = state.timers
    basis = state.basis
    # Pre-sliced pricing blocks: CSR row slicing copies the submatrix,
    # which at one slice per iteration dominates small cold solves.
    # Slicing once up front computes the same products on the same
    # stored values — bit-identical, minus the per-iteration copies.
    if n_real <= _PRICE_BLOCK:
        price_blocks = [(0, matrix_t)]
    else:
        price_blocks = [
            (lo, matrix_t[lo : min(lo + _PRICE_BLOCK, n_real)])
            for lo in range(0, n_real, _PRICE_BLOCK)
        ]

    # Incrementally maintained pricing state: the basic-cost vector, an
    # int mirror of the basis (for vectorized masks) and a bool map of
    # which real columns are basic.
    basis_arr = np.asarray(basis, dtype=np.int64)
    in_basis = np.zeros(n_real, dtype=bool)
    in_basis[basis_arr[basis_arr < n_real]] = True
    cb = np.where(
        basis_arr < n_real,
        costs_real[np.minimum(basis_arr, n_real - 1)],
        art_cost,
    )

    while state.iterations < max_iter:
        refactored = False
        if state.lu.should_refactor:
            # Delay the basic-solution refresh: it is batched with the
            # entering-column ftran below (one multi-RHS LU solve).
            if not state.refactor(recompute_xb=False):
                return "singular"
            refactored = True

        t0 = perf_counter()
        y = state.lu.btran(cb)
        timers.ftran_btran_s += perf_counter() - t0

        t0 = perf_counter()
        entering = -1
        # Blockwise Bland pricing with early exit.  Each CSR row of
        # ``matrix_t`` prices independently (a sequential sparse dot),
        # so per-block products are bit-identical to the full one and
        # the first negative entry is the same column Bland would pick.
        # Basic columns price to ~0; masking them out means roundoff
        # never re-selects one.
        for lo, block in price_blocks:
            hi = min(lo + _PRICE_BLOCK, n_real)
            reduced = costs_real[lo:hi] - block @ y
            reduced[in_basis[lo:hi]] = 0.0
            negative = np.nonzero(reduced < -_EPS)[0]
            if negative.size:
                entering = lo + int(negative[0])
                break
        timers.pricing_s += perf_counter() - t0
        if entering < 0:
            return "optimal"

        t0 = perf_counter()
        if refactored:
            pair = np.empty((m, 2), dtype=np.float64)
            pair[:, 0] = problem.rhs
            pair[:, 1] = problem.column_dense(entering)
            both = state.lu.ftran(pair)
            xb = np.ascontiguousarray(both[:, 0])
            np.copyto(xb, 0.0, where=(xb < 0) & (xb > -1e-9))
            state.xb = xb
            w = np.ascontiguousarray(both[:, 1])
        else:
            w = state.lu.ftran(problem.column_dense(entering))
        timers.ftran_btran_s += perf_counter() - t0

        # Ratio test: pick candidate rows vectorized, then replay the
        # exact order-dependent fuzzy tie-break chain over that (small)
        # subset — skipped rows were ``continue`` in the full loop, so
        # the outcome is identical.
        if pin_artificials:
            art_basic = basis_arr >= n_real
            candidates = np.nonzero(
                (art_basic & (np.abs(w) > _EPS))
                | (~art_basic & (w > _EPS))
            )[0]
        else:
            candidates = np.nonzero(w > _EPS)[0]
        best_row, best_ratio = -1, np.inf
        xb = state.xb
        for i in candidates.tolist():
            if pin_artificials and basis[i] >= n_real:
                # Basic artificial, pinned at zero: any movement of this
                # row caps theta at 0 and swaps the artificial out.
                ratio = 0.0
            else:
                ratio = xb[i] / w[i]
            if ratio < best_ratio - _EPS or (
                abs(ratio - best_ratio) <= _EPS
                and (best_row < 0 or basis[i] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = i
        if best_row < 0:
            return "unbounded"

        theta = max(best_ratio, 0.0)
        state.xb -= theta * w
        state.xb[best_row] = theta
        np.copyto(
            state.xb, 0.0, where=(state.xb < 0) & (state.xb > -1e-9)
        )
        leaving = basis[best_row]
        if leaving < n_real:
            in_basis[leaving] = False
        in_basis[entering] = True
        basis[best_row] = entering
        basis_arr[best_row] = entering
        cb[best_row] = costs_real[entering]
        state.iterations += 1

        if state.lu.can_update(w, best_row):
            state.counters.eta_entries += state.lu.update(w, best_row)
            state.counters.eta_updates += 1
        elif not state.refactor():
            return "singular"
    return "iteration_limit"


def _crash_singletons(problem: _Problem, basis: List[int]) -> None:
    """Crash singleton structural columns onto still-uncovered rows.

    A structural column with exactly one nonzero entry, positive after
    sign normalization, is a valid initial basic column for its row (the
    normalized rhs is ``>= 0``, so the basic value stays feasible).  On
    SherLock LPs this covers every Mostly-Protected window row via its
    ``max0`` auxiliary variable, eliminating phase 1.  Columns are
    scanned in ascending index and "nonzero" means a stored value
    ``!= 0.0`` — the tableau oracle applies the identical rule, which
    is what keeps the two on the same pivot path.
    """
    a = problem.matrix  # CSC
    indptr, indices, data = a.indptr, a.indices, a.data
    nz_pos = np.nonzero(data != 0.0)[0]
    col_of = np.searchsorted(indptr, nz_pos, side="right") - 1
    counts = np.bincount(col_of, minlength=a.shape[1])
    for j in np.nonzero(counts[: problem.n] == 1)[0].tolist():
        lo, hi = indptr[j], indptr[j + 1]
        vals = data[lo:hi]
        k = lo + int(np.nonzero(vals)[0][0])
        if data[k] > _EPS:
            i = int(indices[k])
            if basis[i] < 0:
                basis[i] = j


def _basis_labels(problem: _Problem, basis: List[int]) -> BasisLabels:
    """Backend-independent labels (see :attr:`Solution.basis`), with
    ``("a", row)`` for an artificial stuck on a redundant row (a warm
    start rejects such a basis and falls back to a cold start)."""
    labels: List[Tuple[str, object]] = []
    for col in basis:
        if col < problem.n:
            labels.append(("v", problem.form.variables[col].name))
        elif col < problem.n + problem.m_ub_con:
            labels.append(("s", col - problem.n))
        elif col < problem.n_real:
            labels.append(
                ("b", problem.bound_row_vars[col - problem.n - problem.m_ub_con])
            )
        else:
            labels.append(("a", problem.art_rows[col - problem.n_real]))
    return tuple(labels)


def _basis_matrix(problem: _Problem, basis: List[int]):
    """The basis matrix from the untouched column data, in the storage
    :func:`finalize_basic_solution` solves with: a dense ``m × m`` array
    (duplicates summed) below :data:`_SPARSE_FINALIZE_MIN` rows, CSC at
    and above it — a dense array that size would dwarf the whole solve
    at scale-tier sizes."""
    from scipy.sparse import csc_matrix

    m = len(basis)
    cols = [problem.column(col) for col in basis]
    indptr = np.zeros(m + 1, dtype=np.int64)
    for j, (idx, _) in enumerate(cols):
        indptr[j + 1] = indptr[j] + len(idx)
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=np.float64)
    for j, (idx, vals) in enumerate(cols):
        indices[indptr[j] : indptr[j + 1]] = idx
        data[indptr[j] : indptr[j + 1]] = vals
    if m >= _SPARSE_FINALIZE_MIN:
        return csc_matrix((data, indices, indptr), shape=(m, m))
    dense = np.zeros((m, m))
    np.add.at(dense, (indices, np.repeat(np.arange(m), np.diff(indptr))), data)
    return dense


def _extract(
    problem: _Problem,
    state: _IterationState,
    counters: _Counters,
    prior_iterations: int,
) -> Solution:
    n = problem.n
    x = np.zeros(problem.n_real)
    # Re-solve the final basis from the untouched column data (shared
    # with the tableau oracle) so both report bit-identical values
    # whenever they agree on the basis; fall back to the LU iterate if
    # the one-off basis solve fails.
    xb = finalize_basic_solution(
        _basis_matrix(problem, state.basis), problem.rhs
    )
    if xb is None:
        xb = state.xb
    for row, col in enumerate(state.basis):
        if col < problem.n_real:
            x[col] = xb[row]
    c = problem.c
    values = {
        var: float(x[i] + problem.shift[i])
        for i, var in enumerate(problem.form.variables)
    }
    objective = (
        float(c @ x[:n])
        + float(c @ problem.shift)
        + problem.form.objective_offset
    )
    sol = Solution(SolveStatus.OPTIMAL, objective, values, BACKEND_NAME)
    sol.iterations = prior_iterations + state.iterations
    sol.basis = _basis_labels(problem, state.basis)
    # The returned solution is final here, so the solve's factorization
    # work (a discarded warm attempt included) is counted once.
    timers = state.timers
    count("lp_factorizations", counters.factorizations)
    count("lp_refactorizations", counters.refactorizations)
    count("lp_factorize_s", timers.factorize_s)
    count("lp_ftran_btran_s", timers.ftran_btran_s)
    count("lp_pricing_s", timers.pricing_s)
    count("lp_eta_len", counters.eta_entries)
    return sol


def _resolve_labels(
    problem: _Problem, warm_basis: BasisLabels
) -> Optional[List[int]]:
    """Map basis labels onto the current column layout, or ``None``."""
    if len(warm_basis) != problem.m:
        return None
    name_to_col: Dict[str, int] = {
        var.name: i for i, var in enumerate(problem.form.variables)
    }
    bound_col: Dict[str, int] = {
        name: problem.n + problem.m_ub_con + k
        for k, name in enumerate(problem.bound_row_vars)
    }
    cols: List[int] = []
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
            return None
        if col is None:
            return None
        cols.append(col)
    if len(set(cols)) != problem.m:
        return None
    return cols


def _attempt_warm(
    problem: _Problem,
    warm_basis: BasisLabels,
    counters: _Counters,
    timers: _Timers,
    max_iter: int,
) -> Optional[Solution]:
    """Start phase 2 straight from a previous solve's basis; ``None``
    falls back to the two-phase cold start (label no longer resolves,
    singular basis, or an infeasible basic point)."""
    cols = _resolve_labels(problem, warm_basis)
    if cols is None:
        return None
    ctx = _FactorContext()
    lu = _factor(problem, cols, counters, timers, ctx)
    if lu is None:
        return None
    t0 = perf_counter()
    xb = lu.ftran(problem.rhs)
    timers.ftran_btran_s += perf_counter() - t0
    if not np.all(np.isfinite(xb)) or np.any(xb < 0):
        return None
    state = _IterationState(problem, list(cols), lu, counters, timers, ctx)
    state.xb = xb
    costs = np.zeros(problem.n_real)
    costs[: problem.n] = problem.c
    status = _iterate(
        state, costs, art_cost=0.0, max_iter=max_iter, pin_artificials=False
    )
    if status == "unbounded":
        return Solution(SolveStatus.UNBOUNDED, backend=BACKEND_NAME)
    if status != "optimal":
        return None
    return _extract(problem, state, counters, 0)


def solve_revised(
    model: Model,
    form: Optional[StandardForm] = None,
    warm_basis: Optional[BasisLabels] = None,
) -> Solution:
    """Solve a :class:`Model` with the sparse revised simplex.

    ``form`` lets callers reuse an already-lowered standard form;
    ``warm_basis`` (a previous :attr:`Solution.basis`) skips phase 1
    when it still resolves to a feasible basis, and falls back to the
    cold start cleanly otherwise.
    """
    if form is None:
        form = model.to_standard_form()
    try:
        problem = _prepare_sparse(form)
    except ValueError:
        return Solution(SolveStatus.ERROR, backend=BACKEND_NAME)

    if problem.m == 0:
        return solve_unconstrained(form, problem.c, BACKEND_NAME)

    counters = _Counters()
    timers = _Timers()
    m = problem.m
    max_iter = _MAX_ITER_FACTOR * (m + problem.n_real + m)

    if warm_basis is not None:
        warm = _attempt_warm(problem, warm_basis, counters, timers, max_iter)
        if warm is not None:
            count("lp_phase1_skipped")
            return warm

    # Initial basis: the slack where it survived sign normalization with
    # coefficient +1, then crashed singleton structural columns, a
    # (virtual) artificial only where neither applies.
    basis: List[int] = [-1] * m
    signs_ok = problem.rhs >= 0  # rhs already normalized; kept for clarity
    slack_sign = np.ones(m)
    # A flipped ub row has slack coefficient -1; recover the sign from
    # the stored matrix instead of re-deriving the flip.
    for i in range(problem.m_ub):
        col = problem.n + i
        idx, vals = problem.column(col)
        slack_sign[i] = vals[0] if len(vals) else 0.0
    for i in range(m):
        if i < problem.m_ub and slack_sign[i] > 0.5 and signs_ok[i]:
            basis[i] = problem.n + i
    _crash_singletons(problem, basis)
    for i in range(m):
        if basis[i] < 0:
            problem.art_rows.append(i)
            basis[i] = problem.n_real + len(problem.art_rows) - 1

    ctx = _FactorContext()
    lu = _factor(problem, basis, counters, timers, ctx)
    if lu is None:
        return Solution(SolveStatus.ERROR, backend=BACKEND_NAME)
    state = _IterationState(problem, basis, lu, counters, timers, ctx)

    iterations1 = 0
    if problem.art_rows:
        # Phase 1: minimize the sum of artificials.
        costs1 = np.zeros(problem.n_real)
        status = _iterate(
            state,
            costs1,
            art_cost=1.0,
            max_iter=max_iter,
            pin_artificials=False,
        )
        if status != "optimal":
            return Solution(SolveStatus.ERROR, backend=BACKEND_NAME)
        art_value = sum(
            state.xb[row]
            for row, col in enumerate(state.basis)
            if col >= problem.n_real
        )
        if art_value > 1e-6:
            return Solution(SolveStatus.INFEASIBLE, backend=BACKEND_NAME)
        iterations1 = state.iterations
        state.iterations = 0

    # Phase 2: original objective; leftover basic artificials stay
    # pinned at zero and are ejected by the first pivot touching them.
    costs2 = np.zeros(problem.n_real)
    costs2[: problem.n] = problem.c
    status = _iterate(
        state, costs2, art_cost=0.0, max_iter=max_iter, pin_artificials=True
    )
    if status not in ("optimal", "unbounded"):
        return Solution(SolveStatus.ERROR, backend=BACKEND_NAME)
    count("lp_phase1_iterations", iterations1)
    count("lp_phase1_skipped", int(iterations1 == 0))
    if status == "unbounded":
        return Solution(SolveStatus.UNBOUNDED, backend=BACKEND_NAME)
    return _extract(problem, state, counters, iterations1)


__all__ = ["BACKEND_NAME", "solve_revised"]
