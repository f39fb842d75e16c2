"""Solver results."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .expr import ExprLike, as_expr
from .variable import Variable

#: A simplex basis as backend-independent labels; see :attr:`Solution.basis`.
BasisLabels = Tuple[Tuple[str, object], ...]


class SolveStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass
class Solution:
    """An LP solution: a status, an objective value, and an assignment."""

    status: SolveStatus
    objective: float = float("nan")
    values: Dict[Variable, float] = field(default_factory=dict)
    backend: str = ""
    iterations: int = 0
    #: Final basis of a simplex backend, as backend-independent labels:
    #: ``("v", variable_name)`` for structural columns, ``("s", ub_row)``
    #: for constraint-row slacks and ``("b", variable_name)`` for
    #: upper-bound-row slacks (``("a", row)`` marks an artificial stuck
    #: on a redundant row; other backends reject it and cold-start).
    #: ``None`` for backends that don't expose one.  Feed it back via
    #: ``warm_basis=`` to warm-start a re-solve.
    basis: Optional[BasisLabels] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def value(self, expr: ExprLike) -> float:
        """Evaluate a variable or expression under this solution."""
        return as_expr(expr).value(self.values)

    def by_name(self) -> Mapping[str, float]:
        """Assignment keyed by variable name (for reports and tests)."""
        return {var.name: val for var, val in self.values.items()}

    def __repr__(self) -> str:
        return (
            f"Solution(status={self.status.value}, objective={self.objective:.6g}, "
            f"n_vars={len(self.values)}, backend={self.backend!r})"
        )
