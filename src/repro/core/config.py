"""SherLock configuration.

Defaults mirror the paper: ``Near`` = 1 s, window cap = 15 per static
location pair, λ = 0.2, rare coefficient 0.1, 100 ms injected delays,
3 rounds per input.  Every hypothesis/property and every Perturber
mechanism has a toggle so the ablations of Table 5 and Figure 4 are plain
config changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict

from ..sim.kernel import DEFAULT_OP_COST
from ..sim.schedule import build_policy


@dataclass
class SherlockConfig:
    """All knobs of the SherLock pipeline."""

    # -- Observer (§4.1) -----------------------------------------------------
    #: Physical-time filter for conflicting-access pairs, seconds.
    near: float = 1.0
    #: Max windows one static location pair may contribute **per trace
    #: log** (one test execution's trace).  The counter resets for every
    #: log; a pair observed in k logs of a round may contribute up to
    #: ``k * window_cap`` windows to the round.  This per-log scoping is
    #: load-bearing for the incremental encoder: its append-only window
    #: stream relies on a log's window set being independent of any
    #: other log, so already-encoded windows never retroactively fall
    #: out of the cap.
    window_cap: int = 15

    # -- Solver (§4.2) -------------------------------------------------------
    #: Trade-off between Mostly-Protected and all other hypotheses (Eq. 8).
    lam: float = 0.2
    #: Coefficient of the occurrence penalty (Eq. 4).
    rare_coef: float = 0.1
    #: Probability at/above which a variable counts as "assigned 1".
    threshold: float = 0.9
    #: LP backend: "auto" (scipy/HiGHS, falling back to the built-in
    #: revised simplex when HiGHS ends without an optimum or a proof, e.g.
    #: at an iteration limit) | "scipy"/"highs" | "simplex"/
    #: "revised-simplex" (the built-in sparse revised simplex).
    backend: str = "auto"

    # -- Perturber (§3, §4.3) --------------------------------------------------
    #: Injected delay before each inferred-release instance, seconds.
    delay: float = 0.1
    #: Rounds per input (paper default: 3).
    rounds: int = 3

    # -- execution ---------------------------------------------------------------
    seed: int = 0
    op_cost: float = DEFAULT_OP_COST
    max_steps: int = 2_000_000
    #: Kernel scheduling-policy spec: "random" (uniform, the default) or
    #: "pct"/"pct:<change-prob>" (priority-based schedule exploration).
    schedule_policy: str = "random"

    # -- hypothesis & property toggles (Table 5) -----------------------------------
    hyp_mostly_protected: bool = True
    hyp_rare: bool = True
    hyp_acq_time_varies: bool = True
    hyp_mostly_paired: bool = True
    prop_read_acq_write_rel: bool = True
    prop_single_role: bool = True
    #: The paper's §5.5 future-work extension: treat Single-Role as a soft
    #: constraint (a λ-weighted penalty) instead of a hard one, so genuine
    #: double-role APIs like ``UpgradeToWriteLock`` can win both roles.
    single_role_soft: bool = False

    # -- Perturber / feedback toggles (Figure 4) --------------------------------------
    enable_delay_injection: bool = True
    accumulate_across_runs: bool = True
    enable_race_removal: bool = True
    #: Apply Figure 2 (b)/(c) window refinement from observed delays.
    enable_window_refinement: bool = True

    def __post_init__(self) -> None:
        # Invalid configs fail at construction (and after ``without()``,
        # which goes through ``replace`` → ``__init__`` → here), not only
        # when a pipeline eventually touches them.
        self.validate()

    def without(self, **changes: Any) -> "SherlockConfig":
        """A validated copy with the given fields changed (ablation helper)."""
        return replace(self, **changes)

    def validate(self) -> None:
        """Re-check field invariants (kept public for back-compat)."""
        from ..lp.backends import available_backends

        if self.near <= 0:
            raise ValueError("near must be positive")
        if self.window_cap < 1:
            raise ValueError("window_cap must be >= 1")
        if self.backend not in available_backends():
            raise ValueError(
                f"unknown LP backend {self.backend!r}; choose from "
                f"{sorted(available_backends())}"
            )
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must be in (0, 1]")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        build_policy(self.schedule_policy)  # raises ValueError when unknown


#: Ablation settings used by Table 5, keyed by the paper's row labels.
TABLE5_ABLATIONS: Dict[str, Dict[str, Any]] = {
    "SherLock": {},
    "w/o Mostly are Protected": {"hyp_mostly_protected": False},
    "w/o Synchronizations are Rare": {"hyp_rare": False},
    "w/o Acq-Time Varies": {"hyp_acq_time_varies": False},
    "w/o Mostly are Paired": {"hyp_mostly_paired": False},
    "w/o Read-Acq & Write-Rel": {"prop_read_acq_write_rel": False},
    "w/o Single Role": {"prop_single_role": False},
}


__all__ = ["SherlockConfig", "TABLE5_ABLATIONS"]
