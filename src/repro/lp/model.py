"""LP model container with the lowering helpers SherLock's encoder needs.

The paper's objective (Equation 8) contains two non-linear shapes that have
standard LP lowerings:

* ``max(0, expr)`` — used by the Mostly-Protected terms (Equation 2);
  lowered via an auxiliary variable ``t >= expr, t >= 0`` that is minimized.
* ``|expr|`` — used by the Mostly-Paired terms (Equations 6 and 7);
  lowered via ``t >= expr, t >= -expr``.

Both lowerings are exact when the auxiliary variable's objective
coefficient is positive, which is always the case here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import EQ, GE, LE, Constraint, ExprLike, LinExpr, as_expr
from .solution import Solution
from .variable import Variable

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass
class StandardForm:
    """Standard form: minimize ``c @ x`` subject to
    ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq`` and per-variable bounds.

    ``a_ub``/``a_eq`` are ``scipy.sparse.csr_matrix`` (zero rows when
    there are none), as :meth:`Model.to_standard_form` produces them;
    no backend accepts dense arrays."""

    c: np.ndarray
    a_ub: "csr_matrix"
    b_ub: np.ndarray
    a_eq: "csr_matrix"
    b_eq: np.ndarray
    bounds: List[Tuple[float, Optional[float]]]
    variables: List[Variable]
    objective_offset: float


@dataclass
class ModelCheckpoint:
    """A point a :class:`Model` can roll back to (see :meth:`Model.rollback`).

    Holds the prefix sizes plus a snapshot of the objective, so terms and
    constraints appended after the checkpoint can be discarded and the
    auxiliary-variable numbering replayed identically.
    """

    n_variables: int
    n_constraints: int
    aux_counter: int
    objective_terms: Dict["Variable", float]
    objective_constant: float


class StandardFormCache:
    """Sparse lowering of a model's stable constraint prefix.

    The incremental encoder only ever *appends* constraints past a
    checkpoint and truncates back to it, so the prefix rows of ``a_ub`` /
    ``a_eq`` are reusable verbatim across solves; only the suffix is
    re-lowered.  Rows are kept as sorted (column-index, value) arrays —
    column indices are global variable indexes, so cached rows stay valid
    as the model grows (prefix constraints only reference prefix
    variables, which the encoder's checkpoint discipline guarantees).
    """

    def __init__(self) -> None:
        self.prefix_len = 0
        self.ub_cols: List[int] = []
        self.ub_vals: List[float] = []
        self.ub_lens: List[int] = []
        self.ub_rhs: List[float] = []
        self.eq_cols: List[int] = []
        self.eq_vals: List[float] = []
        self.eq_lens: List[int] = []
        self.eq_rhs: List[float] = []

    def reset(self) -> None:
        self.__init__()


class Model:
    """A minimization LP model."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective = LinExpr()
        self._names: Dict[str, Variable] = {}
        self._aux_counter = 0

    # -- building -------------------------------------------------------------

    def add_variable(
        self, name: str, lower: float = 0.0, upper: Optional[float] = None
    ) -> Variable:
        """Create a variable with a unique name and register it."""
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Variable(name, lower, upper, index=len(self.variables))
        self.variables.append(var)
        self._names[name] = var
        return var

    def get_variable(self, name: str) -> Variable:
        return self._names[name]

    def has_variable(self, name: str) -> bool:
        return name in self._names

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if name:
            constraint.name = name
        for var in constraint.expr.terms:
            if (
                var.index < 0
                or var.index >= len(self.variables)
                or self.variables[var.index] is not var
            ):
                raise ValueError(
                    f"constraint {name!r} uses variable {var.name!r} that is "
                    f"not registered with this model"
                )
        self.constraints.append(constraint)
        return constraint

    def add_objective_term(self, expr: ExprLike, weight: float = 1.0) -> None:
        """Add ``weight * expr`` to the (minimized) objective.

        Accumulates in place (the historical rebind-via-``+`` copied the
        whole objective per term, making encoding quadratic in terms),
        replicating ``LinExpr.__add__`` exactly: same per-coefficient
        arithmetic, same drop-on-exact-zero, same key insertion order.
        """
        terms_ = self.objective.terms
        if type(expr) is Variable:
            # Scalar fast path; exact: ``as_expr`` would contribute
            # ``1.0 * weight == weight`` and a ``0.0 * weight`` constant.
            new = terms_.get(expr, 0.0) + weight
            if new == 0.0:
                terms_.pop(expr, None)
            else:
                terms_[expr] = new
            return
        other = as_expr(expr) * weight
        for var, coef in other.terms.items():
            new = terms_.get(var, 0.0) + coef
            if new == 0.0:
                terms_.pop(var, None)
            else:
                terms_[var] = new
        self.objective.constant += other.constant

    # -- lowering helpers -------------------------------------------------------

    def _fresh_aux(self, prefix: str) -> Variable:
        self._aux_counter += 1
        return self.add_variable(f"__{prefix}_{self._aux_counter}")

    def add_max0_term(self, expr: ExprLike, weight: float = 1.0) -> Variable:
        """Add ``weight * max(0, expr)`` to the objective; returns the aux var."""
        aux = self._fresh_aux("max0")
        self.add_constraint(aux >= as_expr(expr), name=f"{aux.name}_ge")
        self.add_objective_term(aux, weight)
        return aux

    def add_cover_term(self, variables: Sequence[Variable]) -> Variable:
        """Add ``max(0, 1 - sum(variables))`` to the objective; returns
        the aux var.

        For distinct ``variables`` this is :meth:`add_max0_term` of
        ``1 - LinExpr.total(variables)`` term for term — same aux, same
        row name, row ``{aux: 1.0, v: 1.0, ...}`` with constant ``-1.0``,
        same objective entry — built as one dict instead of two
        expression copies.  ``variables`` must belong to this model; unlike
        :meth:`add_constraint`, the row is not re-checked."""
        aux = self._fresh_aux("max0")
        expr = LinExpr(constant=-1.0)
        expr.terms[aux] = 1.0
        expr.terms.update(dict.fromkeys(variables, 1.0))
        self.constraints.append(Constraint(expr, GE, f"{aux.name}_ge"))
        self.add_objective_term(aux, 1.0)
        return aux

    def add_abs_term(self, expr: ExprLike, weight: float = 1.0) -> Variable:
        """Add ``weight * |expr|`` to the objective; returns the aux var."""
        aux = self._fresh_aux("abs")
        e = as_expr(expr)
        self.add_constraint(aux >= e, name=f"{aux.name}_pos")
        self.add_constraint(aux >= -e, name=f"{aux.name}_neg")
        self.add_objective_term(aux, weight)
        return aux

    # -- checkpoint / rollback ----------------------------------------------------

    def checkpoint(self) -> ModelCheckpoint:
        """Snapshot the current prefix for a later :meth:`rollback`."""
        return ModelCheckpoint(
            n_variables=len(self.variables),
            n_constraints=len(self.constraints),
            aux_counter=self._aux_counter,
            objective_terms=dict(self.objective.terms),
            objective_constant=self.objective.constant,
        )

    def rollback(self, cp: ModelCheckpoint) -> None:
        """Discard every variable, constraint and objective term added
        after ``cp``; auxiliary numbering resumes from the checkpoint so
        re-appended sections get identical names."""
        for var in self.variables[cp.n_variables:]:
            del self._names[var.name]
        del self.variables[cp.n_variables:]
        del self.constraints[cp.n_constraints:]
        self._aux_counter = cp.aux_counter
        self.objective = LinExpr(cp.objective_terms, cp.objective_constant)

    # -- lowering to matrices -----------------------------------------------------

    def to_standard_form(self) -> StandardForm:
        """Lower the whole model: :meth:`to_standard_form_cached` with
        nothing cached."""
        return self.to_standard_form_cached(StandardFormCache(), 0)

    @staticmethod
    def _lower_sparse(constraints, sink: StandardFormCache) -> None:
        """Lower constraints into ``sink``'s flat CSR component lists.

        Rows carry sorted global column indexes and no explicit zeros:
        the canonical CSR of the dense matrix, built without it."""
        for con in constraints:
            items = sorted(
                (var.index, coef)
                for var, coef in con.expr.terms.items()
                if coef != 0.0
            )
            if con.sense == LE:
                sink.ub_cols.extend(i for i, _ in items)
                sink.ub_vals.extend(v for _, v in items)
                sink.ub_lens.append(len(items))
                sink.ub_rhs.append(con.rhs)
            elif con.sense == GE:
                sink.ub_cols.extend(i for i, _ in items)
                sink.ub_vals.extend(-v for _, v in items)
                sink.ub_lens.append(len(items))
                sink.ub_rhs.append(-con.rhs)
            elif con.sense == EQ:
                sink.eq_cols.extend(i for i, _ in items)
                sink.eq_vals.extend(v for _, v in items)
                sink.eq_lens.append(len(items))
                sink.eq_rhs.append(con.rhs)

    def to_standard_form_cached(
        self, cache: StandardFormCache, prefix_len: int
    ) -> StandardForm:
        """The standard form, reusing ``cache`` for the lowering of
        ``constraints[:prefix_len]`` (which may only have grown since the
        cache was last used).  ``a_ub``/``a_eq`` come back as
        ``scipy.sparse.csr_matrix``: ``<=`` rows as is, ``>=`` rows
        negated, ``==`` rows in ``a_eq``, each in constraint order (so
        prefix rows stay a prefix of each matrix).  Both backends consume
        the sparse matrices directly."""
        from scipy.sparse import csr_matrix

        if cache.prefix_len > prefix_len:
            cache.reset()
        if cache.prefix_len < prefix_len:
            self._lower_sparse(
                self.constraints[cache.prefix_len : prefix_len], cache
            )
            cache.prefix_len = prefix_len

        n = len(self.variables)
        c = np.zeros(n)
        terms = self.objective.terms
        if terms:
            # Keys are unique variables, so plain assignment is exact.
            c[np.fromiter((v.index for v in terms), np.intp, len(terms))] = (
                np.fromiter(terms.values(), np.float64, len(terms))
            )

        suffix = StandardFormCache()
        self._lower_sparse(self.constraints[prefix_len:], suffix)

        def assemble(cols, vals, lens):
            indptr = np.zeros(len(lens) + 1, dtype=np.int64)
            if lens:
                np.cumsum(lens, out=indptr[1:])
            return csr_matrix(
                (
                    np.array(vals, dtype=np.float64),
                    np.array(cols, dtype=np.int32),
                    indptr,
                ),
                shape=(len(lens), n),
            )

        a_ub = assemble(
            cache.ub_cols + suffix.ub_cols,
            cache.ub_vals + suffix.ub_vals,
            cache.ub_lens + suffix.ub_lens,
        )
        a_eq = assemble(
            cache.eq_cols + suffix.eq_cols,
            cache.eq_vals + suffix.eq_vals,
            cache.eq_lens + suffix.eq_lens,
        )
        bounds = [(v.lower, v.upper) for v in self.variables]
        return StandardForm(
            c=c,
            a_ub=a_ub,
            b_ub=np.array(cache.ub_rhs + suffix.ub_rhs),
            a_eq=a_eq,
            b_eq=np.array(cache.eq_rhs + suffix.eq_rhs),
            bounds=bounds,
            variables=list(self.variables),
            objective_offset=self.objective.constant,
        )

    # -- solving -----------------------------------------------------------------

    def solve(self, backend: str = "auto") -> Solution:
        """Solve the model with the requested backend.

        Backends (see :mod:`repro.lp.backends`):

        * ``"auto"`` — scipy/HiGHS, falling back to the built-in revised
          simplex when HiGHS ends without an optimum or a proof;
        * ``"scipy"`` / ``"highs"`` — :func:`scipy.optimize.linprog`;
        * ``"simplex"`` / ``"revised-simplex"`` — the built-in sparse
          revised simplex with an LU-factorized basis.
        """
        from . import backends

        return backends.solve(self, backend)

    def stats(self) -> Dict[str, int]:
        return {
            "variables": len(self.variables),
            "constraints": len(self.constraints),
            "objective_terms": len(self.objective.terms),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Model({self.name!r}, vars={s['variables']}, "
            f"cons={s['constraints']})"
        )
