"""Candidate variable registry.

Maps each (static operation, role) pair onto one LP variable in [0, 1]
whose value is the probability of the operation playing that role
(``read(f)^acq``, ``write(f)^rel``, ``begin(m)^acq``, ``end(m)^rel`` …).

The Read-Acquire & Write-Release property (Eq. 1) is enforced here by
construction: incapable combinations simply get no variable, which is
equivalent to pinning them at 0.  When the property is ablated
(Table 5 row "w/o Read-Acq & Write-Rel"), every combination is allowed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..lp import Model, Variable
from ..trace.optypes import OpRef, Role, SyncOp


class CandidateRegistry:
    """Creates and indexes probability variables on demand."""

    def __init__(self, model: Model, enforce_capability: bool = True) -> None:
        self.model = model
        self.enforce_capability = enforce_capability
        self._vars: Dict[SyncOp, Variable] = {}
        #: Per-role memo of :meth:`side_vars`, keyed by a side's ordered refs.
        self._sides: Dict[Role, Dict[Tuple[OpRef, ...], Tuple[Variable, ...]]] = {
            Role.RELEASE: {},
            Role.ACQUIRE: {},
        }

    @staticmethod
    def var_name(ref: OpRef, role: Role) -> str:
        return f"{role.value}:{ref.optype.value}:{ref.name}"

    def var(self, ref: OpRef, role: Role) -> Optional[Variable]:
        """The variable for (ref, role), or None when the capability
        property rules the combination out."""
        if self.enforce_capability and not ref.can_play(role):
            return None
        key = SyncOp(ref, role)
        existing = self._vars.get(key)
        if existing is not None:
            return existing
        variable = self.model.add_variable(self.var_name(ref, role), 0.0, 1.0)
        self._vars[key] = variable
        return variable

    def side_vars(
        self, refs: Sequence[OpRef], role: Role
    ) -> Tuple[Variable, ...]:
        """The ``role`` variables of one window side's refs, in order,
        skipping combinations the capability property rules out.

        Memoized per distinct side (many windows share one).  Exact:
        :meth:`var` is a pure function of (ref, role) that creates each
        variable on first use, so the first lookup of a side creates
        variables in the order a plain per-ref lookup would, and a later
        lookup of the same ordered refs would create none.
        """
        memo = self._sides[role]
        key = tuple(refs)
        found = memo.get(key)
        if found is None:
            out = []
            for ref in key:
                v = self.var(ref, role)
                if v is not None:
                    out.append(v)
            found = memo[key] = tuple(out)
        return found

    def items(self) -> Iterable[Tuple[SyncOp, Variable]]:
        return self._vars.items()

    def lookup(self, ref: OpRef, role: Role) -> Optional[Variable]:
        """Existing variable or None; never creates."""
        return self._vars.get(SyncOp(ref, role))

    def __len__(self) -> int:
        return len(self._vars)


__all__ = ["CandidateRegistry"]
