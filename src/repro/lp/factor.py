"""Sparse LU factorization of a simplex basis, with eta-file updates.

The revised simplex (:mod:`repro.lp.revised`) never forms ``B^-1``.  It
keeps the current basis matrix ``B`` factorized as

    B = B0 · E1 · E2 · ... · Ek

where ``B0`` is a sparse LU factorization (SuperLU via
``scipy.sparse.linalg.splu``) of the basis at the last refactorization
and each ``Ei`` is an *eta matrix*: the identity with one column replaced
by the pivot column of a subsequent basis change (the product form of
the inverse; Forrest–Tomlin keeps the update inside the U factor, the
eta file keeps it outside — same asymptotics for the short update
chains we bound below).

Solves against ``B`` and ``B^T`` are then::

    ftran:  x = Ek^-1 ... E1^-1 (B0^-1 b)       (entering column, x_B)
    btran:  y = B0^-T (E1^-T ... Ek^-T c)       (pricing duals)

Performance notes (the cold-solve optimization pass):

* the eta file is stored as **packed flat arrays** (one pivot-row /
  pivot-value array plus CSR-style ``indptr``/``indices``/``values``
  triplets holding only the *nonzero* entries of each eta vector), not
  a list of per-pivot dense vectors.  Entries that are exactly zero
  contribute exact no-ops to the ftran/btran recurrences, so skipping
  them leaves every computed value bit-identical while cutting the
  per-eta cost from ``O(m)`` to ``O(nnz(eta))``;
* ``ftran`` accepts a batched ``(m, k)`` right-hand side — one
  triangular solve pass for several vectors — which the driver uses to
  combine the basic-solution refresh with the entering-column solve at
  refactorization points;
* refactorizations can **reuse the column ordering** of the previous
  factorization (``col_order=``): the basis changes by at most
  :data:`REFACTOR_INTERVAL` columns between refactorizations, so the old
  fill-reducing permutation is usually still good, and re-applying it
  skips the COLAMD analysis (``permc_spec="NATURAL"`` on the
  pre-permuted matrix).  The driver watches :attr:`LUFactor.fill_nnz`
  and falls back to a fresh COLAMD ordering when fill degrades.

Every update appends one eta, so solve cost grows with the chain;
:attr:`LUFactor.should_refactor` tells the driver to refactorize from
scratch once the chain reaches :data:`REFACTOR_INTERVAL` (or immediately
when an update pivot is numerically tiny, which is how
degeneracy-induced drift is flushed).

The basis columns are handed over in sparse (indices, values) form
taken straight from the CSC constraint matrix — nothing here ever
materializes a dense ``m × m`` basis.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

#: A sparse column: (row indices, values) aligned arrays.
SparseColumn = Tuple[np.ndarray, np.ndarray]

#: Updates accumulated before :attr:`LUFactor.should_refactor` trips.
REFACTOR_INTERVAL = 64

#: Pivots smaller than this make an eta update numerically unsafe; the
#: driver refactorizes instead.
PIVOT_TOL = 1e-8

#: Initial capacity of the packed eta-entry arrays.
_ETA_CAPACITY = 1024


class SingularBasisError(ValueError):
    """The candidate basis matrix is (numerically) singular."""


class LUFactor:
    """LU-factorized simplex basis with product-form eta updates.

    Parameters
    ----------
    columns:
        The ``m`` basis columns as sparse ``(indices, values)`` pairs.
    col_order:
        Optional column ordering (a permutation of ``range(m)``) to
        reuse from a previous factorization instead of computing a fresh
        COLAMD one.  See :attr:`ordering`.

    Raises :class:`SingularBasisError` when the basis cannot be
    factorized (structurally or numerically singular).
    """

    def __init__(
        self,
        columns: Sequence[SparseColumn],
        col_order: Optional[np.ndarray] = None,
    ) -> None:
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        m = len(columns)
        self.m = m
        self._order: Optional[np.ndarray] = (
            np.asarray(col_order, dtype=np.int64)
            if col_order is not None
            else None
        )
        src: Sequence[SparseColumn] = columns
        if self._order is not None:
            if len(self._order) != m:
                raise ValueError("col_order length must match basis size")
            src = [columns[j] for j in self._order]

        indptr = np.zeros(m + 1, dtype=np.int64)
        nnz = 0
        for j, (idx, _) in enumerate(src):
            nnz += len(idx)
            indptr[j + 1] = nnz
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)
        pos = 0
        for idx, vals in src:
            k = len(idx)
            indices[pos : pos + k] = idx
            data[pos : pos + k] = vals
            pos += k
        matrix = csc_matrix((data, indices, indptr), shape=(m, m))
        try:
            if self._order is not None:
                self._lu = splu(matrix, permc_spec="NATURAL")
            else:
                self._lu = splu(matrix)
        except (RuntimeError, ValueError) as exc:
            raise SingularBasisError(str(exc)) from exc
        #: nnz of the computed L + U factors — the driver's fill gauge.
        self.fill_nnz = int(self._lu.nnz)

        # Packed eta file.
        self._eta_count = 0
        self._eta_rows = np.empty(REFACTOR_INTERVAL + 1, dtype=np.int64)
        self._eta_pivots = np.empty(REFACTOR_INTERVAL + 1, dtype=np.float64)
        self._eta_indptr = np.zeros(REFACTOR_INTERVAL + 2, dtype=np.int64)
        self._eta_idx = np.empty(_ETA_CAPACITY, dtype=np.int64)
        self._eta_val = np.empty(_ETA_CAPACITY, dtype=np.float64)
        self.eta_updates = 0
        #: Total entries appended to the eta file (its packed length).
        self.eta_nnz = 0

    # -- ordering reuse ---------------------------------------------------------

    @property
    def reused_ordering(self) -> bool:
        """Whether this factorization reused a caller-provided ordering."""
        return self._order is not None

    @property
    def ordering(self) -> np.ndarray:
        """The effective column ordering of this factorization — pass it
        as ``col_order`` to the next :class:`LUFactor` to skip COLAMD."""
        if self._order is not None:
            return self._order
        return np.asarray(self._lu.perm_c, dtype=np.int64)

    # -- solves -----------------------------------------------------------------

    def ftran(self, b: np.ndarray) -> np.ndarray:
        """Solve ``B x = b`` through the factorization and the eta file.

        ``b`` may be a single vector ``(m,)`` or a batch ``(m, k)`` —
        the batch runs one multi-RHS LU solve and a vectorized eta pass.
        """
        x = self._lu.solve(np.asarray(b, dtype=np.float64))
        if self._order is not None:
            out = np.empty_like(x)
            out[self._order] = x
            x = out
        k = self._eta_count
        if k:
            rows, pivots = self._eta_rows, self._eta_pivots
            indptr = self._eta_indptr
            eidx, eval_ = self._eta_idx, self._eta_val
            if x.ndim == 1:
                for t in range(k):
                    r = rows[t]
                    lo, hi = indptr[t], indptr[t + 1]
                    xr = x[r] / pivots[t]
                    # x -= xr * eta over the eta's nonzeros; the pivot
                    # slot becomes xr.
                    x[eidx[lo:hi]] -= xr * eval_[lo:hi]
                    x[r] = xr
            else:
                for t in range(k):
                    r = rows[t]
                    lo, hi = indptr[t], indptr[t + 1]
                    xr = x[r] / pivots[t]
                    x[eidx[lo:hi]] -= eval_[lo:hi, None] * xr[None, :]
                    x[r] = xr
        return x

    def btran(self, c: np.ndarray) -> np.ndarray:
        """Solve ``B^T y = c`` (eta file applied newest-first)."""
        y = np.asarray(c, dtype=np.float64).copy()
        rows, pivots = self._eta_rows, self._eta_pivots
        indptr, eidx, eval_ = self._eta_indptr, self._eta_idx, self._eta_val
        for t in range(self._eta_count - 1, -1, -1):
            r = rows[t]
            lo, hi = indptr[t], indptr[t + 1]
            yr = y[r]
            # Row r of E^T carries the whole eta vector: solve it last.
            y[r] = 0.0
            y[r] = (yr - eval_[lo:hi] @ y[eidx[lo:hi]]) / pivots[t]
        if self._order is not None:
            y = y[self._order]
        return self._lu.solve(y, trans="T")

    # -- updates ----------------------------------------------------------------

    def can_update(self, w: np.ndarray, r: int) -> bool:
        """Whether replacing basis column ``r`` by a column whose ftran
        image is ``w`` is numerically safe as an eta update."""
        return abs(w[r]) > PIVOT_TOL

    def update(self, w: np.ndarray, r: int) -> int:
        """Record the basis change ``column r := entering`` where
        ``w = ftran(entering column)`` (already through the eta file).
        Returns the number of eta entries appended."""
        if not self.can_update(w, r):
            raise SingularBasisError(
                f"eta pivot {w[r]!r} below tolerance at row {r}"
            )
        idx = np.nonzero(w)[0]
        k = self._eta_count
        if k + 1 >= len(self._eta_rows):  # defensive; interval bounds k
            self._eta_rows = np.resize(self._eta_rows, 2 * len(self._eta_rows))
            self._eta_pivots = np.resize(
                self._eta_pivots, 2 * len(self._eta_pivots)
            )
            self._eta_indptr = np.resize(
                self._eta_indptr, 2 * len(self._eta_indptr)
            )
        lo = self._eta_indptr[k]
        hi = lo + idx.size
        while hi > len(self._eta_idx):
            self._eta_idx = np.resize(self._eta_idx, 2 * len(self._eta_idx))
            self._eta_val = np.resize(self._eta_val, 2 * len(self._eta_val))
        self._eta_idx[lo:hi] = idx
        self._eta_val[lo:hi] = w[idx]
        self._eta_rows[k] = r
        self._eta_pivots[k] = w[r]
        self._eta_indptr[k + 1] = hi
        self._eta_count = k + 1
        self.eta_updates += 1
        self.eta_nnz += int(idx.size)
        return int(idx.size)

    @property
    def should_refactor(self) -> bool:
        return self._eta_count >= REFACTOR_INTERVAL

    @property
    def eta_count(self) -> int:
        return self._eta_count


__all__ = [
    "LUFactor",
    "PIVOT_TOL",
    "REFACTOR_INTERVAL",
    "SingularBasisError",
]
