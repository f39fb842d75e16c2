"""The LP lowering never builds a dense constraint matrix.

Every solve lowers through :meth:`~repro.lp.Model.to_standard_form`
(one-off solves such as the λ-stability oracle's probes) or its cached
form (the pipeline's incremental encoder), and both assemble CSR
directly.  The historical lowering, one dense row over every variable
per constraint, survives only as the reference
(:func:`tests.oracles.encoder.dense_standard_form`): the CSR matrices
must hold exactly its values.
"""

import tracemalloc

import numpy as np
from scipy.sparse import issparse

from repro.apps.registry import get_application
from repro.core import SherlockConfig
from repro.core.encoder import build_model
from repro.core.pipeline import Sherlock
from repro.lp import Model, StandardFormCache
from tests.oracles.encoder import dense_standard_form


def _assert_same_form(sparse, dense):
    assert issparse(sparse.a_ub) and issparse(sparse.a_eq)
    for name in ("a_ub", "a_eq"):
        got, want = getattr(sparse, name), getattr(dense, name).toarray()
        assert got.shape == want.shape
        assert np.array_equal(got.toarray(), want)
        # No explicit zeros: the canonical CSR of the dense matrix.
        assert got.nnz == np.count_nonzero(want)
    for name in ("c", "b_ub", "b_eq"):
        assert np.array_equal(getattr(sparse, name), getattr(dense, name))
    assert sparse.bounds == dense.bounds
    assert sparse.variables == dense.variables
    assert sparse.objective_offset == dense.objective_offset


def test_lowering_equals_the_dense_reference():
    """Every sense, a bounded and an unbounded variable, an objective
    constant."""
    m = Model()
    x = m.add_variable("x", 0, 1)
    y = m.add_variable("y")
    z = m.add_variable("z", 0, 4)
    m.add_constraint(x + y <= 3)
    m.add_constraint(x - 2 * z >= -1)
    m.add_constraint((x + 2 * y) == 2)
    m.add_constraint(z >= 0.5)
    m.add_objective_term(x + y - 3)
    _assert_same_form(m.to_standard_form(), dense_standard_form(m))


def test_lowering_of_sherlock_models_equals_the_dense_reference():
    """The one-off path's model (what the λ-stability oracle solves),
    lowered whole and with half of it cached."""
    for app_id, changes in (("App-2", {}), ("App-7", {"single_role_soft": True})):
        config = SherlockConfig(rounds=2, **changes)
        store = Sherlock(get_application(app_id), config).run().store
        model, _ = build_model(store, config)
        dense = dense_standard_form(model)
        _assert_same_form(model.to_standard_form(), dense)
        cache = StandardFormCache()
        half = len(model.constraints) // 2
        model.to_standard_form_cached(cache, half)
        _assert_same_form(model.to_standard_form_cached(cache, half), dense)


def _lowering_peak_bytes(lower):
    n = 2000
    m = Model()
    xs = [m.add_variable(f"x{i}", 0, 1) for i in range(n)]
    for i in range(n):
        m.add_constraint(xs[i] + xs[(i + 1) % n] >= 1)
        m.add_objective_term(xs[i], 1.0)
    tracemalloc.start()
    try:
        lower(m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lowering_never_allocates_the_dense_matrix():
    """A 2000 × 2000 model with two terms per row: its dense matrix
    alone is 32 MB, the CSR lowering stays under 4 MB."""
    assert _lowering_peak_bytes(Model.to_standard_form) < 4 * 2**20
    assert _lowering_peak_bytes(dense_standard_form) > 32 * 10**6
