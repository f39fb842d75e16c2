"""Solve the encoded LP and interpret the assignment (§4.2).

Variables assigned (approximately) 1 identify acquire and release
synchronizations.  The model has no trivial solution: Mostly-Protected
pushes at least one variable per window up, while the rare/regularizer
terms push everything down, so the optimum is a sparse cover of the
observed windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..lp import Solution, SolveStatus
from ..metrics import count, timed
from ..trace.optypes import Role, SyncOp
from .config import SherlockConfig
from .encoder import IncrementalEncoder, build_model
from .stats import ObservationStore


class SolverError(RuntimeError):
    """Raised when the LP solve does not reach an optimum."""


@dataclass
class InferenceResult:
    """The solver's verdict after one round."""

    acquires: Set[SyncOp] = field(default_factory=set)
    releases: Set[SyncOp] = field(default_factory=set)
    #: Raw probability per candidate (only candidates with variables).
    probabilities: Dict[SyncOp, float] = field(default_factory=dict)
    objective: float = 0.0
    n_variables: int = 0
    n_constraints: int = 0
    backend: str = ""
    #: Variables the encoder appended this round (equals the full model
    #: size on a rebuild).
    lp_delta_variables: int = 0

    @property
    def syncs(self) -> Set[SyncOp]:
        return self.acquires | self.releases

    def sync_names(self) -> Set[str]:
        return {s.op.name for s in self.syncs}

    def contains(self, sync: SyncOp) -> bool:
        return sync in self.acquires or sync in self.releases

    def __repr__(self) -> str:
        return (
            f"InferenceResult(acquires={len(self.acquires)}, "
            f"releases={len(self.releases)}, objective={self.objective:.4g})"
        )


def infer(
    store: ObservationStore,
    config: SherlockConfig,
    encoder: Optional[IncrementalEncoder] = None,
) -> InferenceResult:
    """Encode the store, solve, and threshold the probabilities.

    With an ``encoder`` (see :class:`~repro.core.encoder.IncrementalEncoder`;
    the pipeline always passes one), encoding appends this round's delta
    onto the encoder's persistent model and the solve reuses the cached
    constraint-prefix lowering.  Without one, the model is rebuilt from
    the whole store with :func:`~repro.core.encoder.build_model` and
    lowered in one pass — what one-off solves such as the λ-stability
    oracle want.  Both lowerings are sparse, and both paths produce
    byte-identical results.
    """
    with timed("encode_s"):
        if encoder is not None:
            model, registry = encoder.encode(store)
        else:
            model, registry = build_model(store, config)
    if len(registry) == 0:
        return InferenceResult(backend="empty")

    with timed("solve_s"):
        if encoder is not None:
            solution: Solution = encoder.solve(config.backend)
            delta_variables = encoder.last_delta_variables
            delta_constraints = encoder.last_delta_constraints
        else:
            solution = model.solve(config.backend)
            delta_variables = len(model.variables)
            delta_constraints = len(model.constraints)
        if solution.status is not SolveStatus.OPTIMAL:
            raise SolverError(
                f"LP solve failed with status {solution.status.value} "
                f"({model.stats()})"
            )
        count("lp_variables", len(model.variables))
        count("lp_constraints", len(model.constraints))
        count("lp_pivots", solution.iterations)
        count("lp_delta_variables", delta_variables)
        count("lp_delta_constraints", delta_constraints)

        result = InferenceResult(
            objective=solution.objective,
            n_variables=len(model.variables),
            n_constraints=len(model.constraints),
            backend=solution.backend,
            lp_delta_variables=delta_variables,
        )
        for sync, variable in registry.items():
            probability = solution.values.get(variable, 0.0)
            result.probabilities[sync] = probability
            if probability >= config.threshold:
                if sync.role is Role.ACQUIRE:
                    result.acquires.add(sync)
                else:
                    result.releases.add(sync)
        return result


__all__ = ["InferenceResult", "SolverError", "infer"]
