"""LP encoding of the synchronization properties and hypotheses (§4.2).

Builds, from an :class:`~repro.core.stats.ObservationStore`, the linear
program of Equations (1)–(8):

* **Read-Acquire & Write-Release** (Eq. 1) — enforced structurally by the
  :class:`~repro.core.candidates.CandidateRegistry`.
* **Single Role** — for a library API ``l``:
  ``begin(l)^acq + end(l)^rel <= 1``.  (The paper prints the constraint
  with the roles that Eq. 1 already pins to zero, which would be vacuous;
  we encode the evidently intended capable-role pair, which is what makes
  ``UpgradeToWriteLock``'s double role a real conflict.)
* **Mostly Protected** (Eq. 2) — per window ``w``:
  ``max(0, 1 - sum of release vars)`` + the acquire twin, each variable
  counted once per window regardless of dynamic instances.
* **Synchronizations are Rare** (Eqs. 3, 4) — regularizer ``v`` plus
  ``0.1 * avg_occurrence(v) * v``.
* **Acquisition-Time Mostly Varies** (Eq. 5) —
  ``(1 - percentile(CV(duration(m)))) * begin(m)^acq``.
* **Mostly Paired** (Eqs. 6, 7) — per class ``|Σ acq − Σ rel|`` over its
  method candidates; per field ``|read(f)^acq − write(f)^rel|``.

The overall objective (Eq. 8) weights the Mostly-Protected terms at 1 and
every other hypothesis at λ (default 0.2), matching the paper's described
trade-off (λ up ⇒ fewer inferred synchronizations, Table 6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..lp import LinExpr, Model, StandardForm, StandardFormCache, Variable
from ..lp import solve as lp_solve
from ..lp.solution import Solution
from ..trace.optypes import OpRef, OpType, Role
from .candidates import CandidateRegistry
from .config import SherlockConfig
from .stats import ObservationStore
from .windows import Window

#: (release-side averages, acquire-side averages) — Eq. (4) input.
Occurrence = Tuple[Dict[OpRef, float], Dict[OpRef, float]]


def _append_protected(
    model: Model,
    registry: CandidateRegistry,
    windows: List[Window],
    config: SherlockConfig,
) -> None:
    """Mostly-Protected terms (Eq. 2) for the given coverage windows.

    Each row is built directly (:meth:`~repro.lp.Model.add_cover_term`)
    from the side's variables, which the registry looks up once per
    distinct side.  Appending is order-preserving, so calling this once
    with all windows (rebuild) or repeatedly with each round's new
    windows (incremental) creates identical variables, auxiliaries and
    constraints in identical order."""
    if config.hyp_mostly_protected:
        for window in windows:
            rel_vars = registry.side_vars(window.release_side, Role.RELEASE)
            if rel_vars:
                model.add_cover_term(rel_vars)
            acq_vars = registry.side_vars(window.acquire_side, Role.ACQUIRE)
            if acq_vars:
                model.add_cover_term(acq_vars)
        return

    # With Mostly-Protected ablated, still give every candidate seen in a
    # non-racy window a variable, so downstream terms and the result
    # interpretation stay well-defined.
    for window in windows:
        registry.side_vars(window.release_side, Role.RELEASE)
        registry.side_vars(window.acquire_side, Role.ACQUIRE)


def _append_sections(
    model: Model,
    registry: CandidateRegistry,
    store: ObservationStore,
    config: SherlockConfig,
    occurrence: Optional[Occurrence],
) -> None:
    """The store-global objective sections (Eqs. 3–7 and Single Role).

    These depend on whole-store statistics, so the incremental encoder
    re-appends them after every round (on top of a rolled-back
    checkpoint) rather than patching them in place."""
    lam = config.lam

    # -- Synchronizations are Rare (Eqs. 3 and 4) ------------------------------
    # λ trades Mostly-Protected off against all other hypotheses; the
    # sparsity terms are normalized so the default λ = 0.2 yields a unit
    # regularizer (a variable must cover more than one window to pay for
    # itself), and larger λ shrinks the inferred set as in Table 6.
    sparsity = lam / 0.2
    if config.hyp_rare:
        rel_avg, acq_avg = occurrence
        rare_coef = config.rare_coef
        for sync, variable in registry.items():
            side_avg = rel_avg if sync.role is Role.RELEASE else acq_avg
            occ = side_avg.get(sync.op, 1.0)
            # Eq. 3 regularizer plus the Eq. 4 occurrence weight in one
            # exact add: both start from a zero entry, so
            # ``0 + (a + b) == (0 + a) + b`` bit-for-bit.
            model.add_objective_term(
                variable, sparsity + sparsity * rare_coef * occ
            )

    # -- Acquisition-Time Mostly Varies (Eq. 5) ----------------------------------
    # Weighted by λ like the pair terms: it is a preference nudge, not a
    # sparsity force — otherwise constant-duration true acquires (test
    # begins, one-shot delegates) could never be inferred.
    if config.hyp_acq_time_varies:
        percentiles = store.cv_percentiles()
        for sync, variable in registry.items():
            if sync.role is Role.ACQUIRE and sync.op.optype is OpType.ENTER:
                # Methods with no duration evidence carry no penalty.
                pct = percentiles.get(sync.op.name)
                if pct is not None and pct < 1.0:
                    model.add_objective_term(variable, lam * (1.0 - pct))

    # -- Mostly Paired (Eqs. 6 and 7) ----------------------------------------------
    if config.hyp_mostly_paired:
        _encode_paired(model, registry, lam)

    # -- Single Role ------------------------------------------------------------------
    if config.prop_single_role:
        _encode_single_role(
            model,
            registry,
            store.library_names,
            soft_weight=lam if config.single_role_soft else None,
        )


def build_model(
    store: ObservationStore, config: SherlockConfig
) -> Tuple[Model, CandidateRegistry]:
    """Encode the whole store into a fresh LP model.

    The one-off path (``infer`` without an encoder, the λ-stability
    oracle's probes); a fresh :class:`IncrementalEncoder`'s first encode
    builds the same model.
    """
    model = Model("sherlock")
    registry = CandidateRegistry(
        model, enforce_capability=config.prop_read_acq_write_rel
    )
    windows = store.coverage_windows(config.enable_race_removal)
    _append_protected(model, registry, windows, config)
    occurrence = store.average_occurrence() if config.hyp_rare else None
    _append_sections(model, registry, store, config, occurrence)
    return model, registry


class IncrementalEncoder:
    """Round-over-round LP encoding that appends instead of rebuilding.

    The Mostly-Protected terms are the only per-window (and therefore
    monotonically growing) part of the encoding; everything else — Rare,
    CV, Paired, Single-Role — is a store-global section.  The encoder
    keeps one persistent model whose prefix holds the MP terms of every
    window encoded so far, takes a :meth:`~repro.lp.Model.checkpoint`
    after the prefix, and on each round:

    1. rolls the model back to the checkpoint (dropping last round's
       sections),
    2. appends MP terms for the round's *new* coverage windows and moves
       the checkpoint,
    3. re-appends the sections from the store's running statistics.

    Because appends replay the exact operation sequence of a fresh
    :func:`build_model` over the full store (same variable/constraint
    creation order, same auxiliary numbering, same objective
    arithmetic), the encoded model is float-identical to a rebuild and
    serialized reports stay byte-identical.  Two events force a full
    rebuild: a store swap (``accumulate_across_runs=False``) and new
    racy pairs (race removal reaches back into already-encoded windows).

    Solving goes through a :class:`~repro.lp.StandardFormCache` (the
    stable prefix of the constraint matrix is lowered once) and, for the
    built-in simplex backends, a warm start from the previous round's
    basis.  The backends promise only *an* optimal vertex from a warm
    start, but on every registered app warm and cold 3-round runs
    serialize byte-identically
    (``tests/core/test_backend_e2e_differential.py``); the default
    scipy backend ignores the basis.
    """

    def __init__(self, config: SherlockConfig) -> None:
        self.config = config
        self.model: Optional[Model] = None
        self.registry: Optional[CandidateRegistry] = None
        self._cp = None
        self._store: Optional[ObservationStore] = None
        self._n_windows_seen = 0
        self._racy_pairs: frozenset = frozenset()
        self._form_cache = StandardFormCache()
        self._warm_basis = None
        #: Observability: whether the last encode() was a full rebuild,
        #: and how many variables/constraints it appended.
        self.last_rebuild = False
        self.last_delta_variables = 0
        self.last_delta_constraints = 0

    def encode(
        self, store: ObservationStore
    ) -> Tuple[Model, CandidateRegistry]:
        """Bring the persistent model up to date with ``store``."""
        config = self.config
        racy = frozenset(store.racy_pairs)
        rebuild = (
            self.model is None
            or store is not self._store
            or (config.enable_race_removal and racy != self._racy_pairs)
        )
        if rebuild:
            self.model = Model("sherlock")
            self.registry = CandidateRegistry(
                self.model,
                enforce_capability=config.prop_read_acq_write_rel,
            )
            self._form_cache.reset()
            self._warm_basis = None
            base_vars = base_cons = 0
            windows = store.coverage_windows(config.enable_race_removal)
        else:
            self.model.rollback(self._cp)
            base_vars = len(self.model.variables)
            base_cons = len(self.model.constraints)
            windows = [
                w
                for w in store.windows[self._n_windows_seen:]
                if not w.racy
                and (
                    not config.enable_race_removal
                    or w.pair_key not in store.racy_pairs
                )
            ]
        _append_protected(self.model, self.registry, windows, config)
        self._cp = self.model.checkpoint()
        self._store = store
        self._n_windows_seen = len(store.windows)
        self._racy_pairs = racy
        occurrence = store.average_occurrence() if config.hyp_rare else None
        _append_sections(self.model, self.registry, store, config, occurrence)
        self.last_rebuild = rebuild
        self.last_delta_variables = len(self.model.variables) - base_vars
        self.last_delta_constraints = len(self.model.constraints) - base_cons
        return self.model, self.registry

    def solve(self, backend: Optional[str] = None) -> Solution:
        """Solve the current model, reusing the cached prefix lowering
        and (simplex only) last round's basis."""
        backend = backend if backend is not None else self.config.backend
        form: StandardForm = self.model.to_standard_form_cached(
            self._form_cache, self._cp.n_constraints
        )
        solution = lp_solve(
            self.model,
            backend,
            form=form,
            warm_basis=self._warm_basis,
        )
        self._warm_basis = solution.basis
        return solution


def _encode_paired(
    model: Model, registry: CandidateRegistry, lam: float
) -> None:
    # Eq. 6: per class, method acquires and releases should balance.
    # Registry variables are distinct, so the class sum is exactly these
    # ±1 coefficients in registry order.
    by_class: Dict[str, Dict[Variable, float]] = {}
    for sync, variable in registry.items():
        if sync.op.optype.is_method:
            by_class.setdefault(sync.op.class_name, {})[variable] = (
                1.0 if sync.role is Role.ACQUIRE else -1.0
            )
    for terms in by_class.values():
        model.add_abs_term(LinExpr(terms), weight=lam)

    # Eq. 7: per field, read-acquire pairs with write-release.
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
    soft_weight: float = None,
) -> None:
    """Single-Role for library APIs.

    Hard by default (``begin^acq + end^rel <= 1``); with ``soft_weight``
    set (the paper's §5.5 future-work suggestion) the violation is merely
    penalized, letting genuine double-role APIs win both roles when the
    window evidence is strong enough.
    """
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


__all__ = ["IncrementalEncoder", "build_model"]
