"""The rebuild-from-scratch LP encoding: the reference for the encoder.

:func:`build_model` is the historical construction of the Eq. 1–8 LP,
kept verbatim: every Mostly-Protected row goes through ``LinExpr``
arithmetic (``aux >= 1 - LinExpr.total(vs)``) with a fresh registry
lookup per window, Eq. (4)'s occurrence averages come from a rescan of
every window, the variable-ensure pass runs even when
Mostly-Protected already created every variable, and the Eq. 6 class
sums are accumulated with ``expr + v``.  :class:`ReferenceEncoder`
re-encodes the whole store with it on every call and solves it cold
through :func:`dense_standard_form`, the historical dense lowering.

The production :class:`~repro.core.encoder.IncrementalEncoder` and
:func:`~repro.core.encoder.build_model` must produce exactly these
models — variables, rows and objective, term order and float bits
included — and, through the sparse lowering, the same results.
"""

from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.candidates import CandidateRegistry
from repro.core.config import SherlockConfig
from repro.core.stats import ObservationStore
from repro.core.windows import Window
from repro.lp import LinExpr, Model, Solution, StandardForm
from repro.lp import solve as lp_solve
from repro.lp.expr import EQ, GE, LE
from repro.trace.optypes import OpRef, OpType, Role

Occurrence = Tuple[Dict[OpRef, float], Dict[OpRef, float]]


def _side_vars(registry: CandidateRegistry, refs, role: Role) -> list:
    out = []
    for ref in refs:
        v = registry.var(ref, role)
        if v is not None:
            out.append(v)
    return out


def average_occurrence(store: ObservationStore) -> Occurrence:
    """Eq. (4)'s per-side mean occurrence, by rescanning every window."""
    rel_total: Dict[OpRef, int] = {}
    rel_windows: Dict[OpRef, int] = {}
    acq_total: Dict[OpRef, int] = {}
    acq_windows: Dict[OpRef, int] = {}
    for window in store.windows:
        for ref, count in window.release_side.items():
            rel_total[ref] = rel_total.get(ref, 0) + count
            rel_windows[ref] = rel_windows.get(ref, 0) + 1
        for ref, count in window.acquire_side.items():
            acq_total[ref] = acq_total.get(ref, 0) + count
            acq_windows[ref] = acq_windows.get(ref, 0) + 1
    rel_avg = {r: rel_total[r] / rel_windows[r] for r in rel_total}
    acq_avg = {r: acq_total[r] / acq_windows[r] for r in acq_total}
    return rel_avg, acq_avg


def _append_protected(
    model: Model,
    registry: CandidateRegistry,
    windows: List[Window],
    config: SherlockConfig,
) -> None:
    if config.hyp_mostly_protected:
        for window in windows:
            rel_vars = _side_vars(registry, window.release_side, Role.RELEASE)
            if rel_vars:
                model.add_max0_term(1 - LinExpr.total(rel_vars), weight=1.0)
            acq_vars = _side_vars(registry, window.acquire_side, Role.ACQUIRE)
            if acq_vars:
                model.add_max0_term(1 - LinExpr.total(acq_vars), weight=1.0)

    # Ensure every candidate ever seen in a non-racy window has a variable
    # even when Mostly-Protected is ablated.
    for window in windows:
        _side_vars(registry, window.release_side, Role.RELEASE)
        _side_vars(registry, window.acquire_side, Role.ACQUIRE)


def _append_sections(
    model: Model,
    registry: CandidateRegistry,
    store: ObservationStore,
    config: SherlockConfig,
    occurrence: Optional[Occurrence],
) -> None:
    lam = config.lam
    sparsity = lam / 0.2
    if config.hyp_rare:
        rel_avg, acq_avg = occurrence
        rare_coef = config.rare_coef
        for sync, variable in registry.items():
            side_avg = rel_avg if sync.role is Role.RELEASE else acq_avg
            occ = side_avg.get(sync.op, 1.0)
            model.add_objective_term(
                variable, sparsity + sparsity * rare_coef * occ
            )

    if config.hyp_acq_time_varies:
        percentiles = store.cv_percentiles()
        for sync, variable in registry.items():
            if sync.role is Role.ACQUIRE and sync.op.optype is OpType.ENTER:
                pct = percentiles.get(sync.op.name)
                if pct is not None and pct < 1.0:
                    model.add_objective_term(variable, lam * (1.0 - pct))

    if config.hyp_mostly_paired:
        _encode_paired(model, registry, lam)

    if config.prop_single_role:
        _encode_single_role(
            model,
            registry,
            store.library_names,
            soft_weight=lam if config.single_role_soft else None,
        )


def _encode_paired(
    model: Model, registry: CandidateRegistry, lam: float
) -> None:
    by_class: Dict[str, List] = {}
    for sync, variable in registry.items():
        if sync.op.optype.is_method:
            by_class.setdefault(sync.op.class_name, []).append(
                (sync.role, variable)
            )
    for members in by_class.values():
        expr = LinExpr()
        for role, variable in members:
            expr = expr + variable if role is Role.ACQUIRE else expr - variable
        if expr.terms:
            model.add_abs_term(expr, weight=lam)

    fields: Set[str] = set()
    for sync, _ in registry.items():
        if sync.op.optype.is_memory:
            fields.add(sync.op.name)
    for name in sorted(fields):
        read_var = registry.lookup(OpRef(name, OpType.READ), Role.ACQUIRE)
        write_var = registry.lookup(OpRef(name, OpType.WRITE), Role.RELEASE)
        expr = LinExpr()
        if read_var is not None:
            expr = expr + read_var
        if write_var is not None:
            expr = expr - write_var
        if expr.terms:
            model.add_abs_term(expr, weight=lam)


def _encode_single_role(
    model: Model,
    registry: CandidateRegistry,
    library_names: Set[str],
    soft_weight: Optional[float] = None,
) -> None:
    for name in sorted(library_names):
        begin_acq = registry.lookup(OpRef(name, OpType.ENTER), Role.ACQUIRE)
        end_rel = registry.lookup(OpRef(name, OpType.EXIT), Role.RELEASE)
        if begin_acq is None or end_rel is None:
            continue
        if soft_weight is None:
            model.add_constraint(
                begin_acq + end_rel <= 1, name=f"single_role:{name}"
            )
        else:
            model.add_max0_term(
                begin_acq + end_rel - 1, weight=soft_weight
            )


def dense_standard_form(model: Model) -> StandardForm:
    """The historical lowering: one dense numpy row per constraint.

    The reference for :meth:`~repro.lp.Model.to_standard_form`, whose
    CSR matrices must hold exactly these values.  The matrices are built
    dense (that cost is what the peak-allocation test measures) and
    handed out as CSR, the only format the backends take."""
    n = len(model.variables)
    c = np.zeros(n)
    for var, coef in model.objective.terms.items():
        c[var.index] += coef

    ub_rows: List[np.ndarray] = []
    ub_rhs: List[float] = []
    eq_rows: List[np.ndarray] = []
    eq_rhs: List[float] = []
    for con in model.constraints:
        row = np.zeros(n)
        for var, coef in con.expr.terms.items():
            row[var.index] += coef
        rhs = con.rhs
        if con.sense == LE:
            ub_rows.append(row)
            ub_rhs.append(rhs)
        elif con.sense == GE:
            ub_rows.append(-row)
            ub_rhs.append(-rhs)
        elif con.sense == EQ:
            eq_rows.append(row)
            eq_rhs.append(rhs)

    a_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
    a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
    bounds = [(v.lower, v.upper) for v in model.variables]
    return StandardForm(
        c=c,
        a_ub=csr_matrix(a_ub),
        b_ub=np.array(ub_rhs),
        a_eq=csr_matrix(a_eq),
        b_eq=np.array(eq_rhs),
        bounds=bounds,
        variables=list(model.variables),
        objective_offset=model.objective.constant,
    )


def build_model(
    store: ObservationStore, config: SherlockConfig
) -> Tuple[Model, CandidateRegistry]:
    """Encode the whole store from scratch, the historical way."""
    model = Model("sherlock")
    registry = CandidateRegistry(
        model, enforce_capability=config.prop_read_acq_write_rel
    )
    windows = store.coverage_windows(config.enable_race_removal)
    _append_protected(model, registry, windows, config)
    occurrence = average_occurrence(store) if config.hyp_rare else None
    _append_sections(model, registry, store, config, occurrence)
    return model, registry


class ReferenceEncoder:
    """Drop-in for :class:`~repro.core.encoder.IncrementalEncoder` that
    rebuilds the whole model with :func:`build_model` on every
    :meth:`encode` and solves it cold through the dense lowering."""

    def __init__(self, config: SherlockConfig) -> None:
        self.config = config
        self.model: Optional[Model] = None
        self.registry: Optional[CandidateRegistry] = None
        self.last_rebuild = False
        self.last_delta_variables = 0
        self.last_delta_constraints = 0

    def encode(
        self, store: ObservationStore
    ) -> Tuple[Model, CandidateRegistry]:
        self.model, self.registry = build_model(store, self.config)
        self.last_rebuild = True
        self.last_delta_variables = len(self.model.variables)
        self.last_delta_constraints = len(self.model.constraints)
        return self.model, self.registry

    def solve(self, backend: Optional[str] = None) -> Solution:
        return lp_solve(
            self.model,
            backend if backend is not None else self.config.backend,
            form=dense_standard_form(self.model),
        )


__all__ = ["ReferenceEncoder", "build_model", "dense_standard_form"]
