"""The Perturber (§3, §4.3).

After every round, SherLock injects a delay right before every dynamic
instance of every operation the Solver currently considers a release
synchronization.  The kernel executes the plan; the propagation check and
window refinement live in :class:`~repro.core.windows.WindowExtractor`.

Trigger placement: binary instrumentation can only inject at call
boundaries.  A release that is a field write is delayed right before the
write; a release that is a method exit ``end(m)`` is delayed right before
the *call* (``begin(m)``) — delaying between the API's internal release
action and its return is physically impossible, and would make every true
release look refuted.
"""

from __future__ import annotations

from typing import Dict

from ..sim.kernel import DelaySpec
from ..trace.optypes import OpRef, OpType, SyncOp
from .config import SherlockConfig
from .solver import InferenceResult


def build_delay_plan(
    inference: InferenceResult, config: SherlockConfig
) -> Dict[OpRef, DelaySpec]:
    """Delay plan for the next round: every inferred release gets a delay.

    Keys are trigger operations; each spec carries the release site under
    test.  Empty when delay injection is disabled — and on the first
    round, when there is no inference yet (the caller passes no plan).

    Releases are visited in display order, so the plan does not depend
    on set iteration order.  Two releases share a trigger only when both
    ``begin(m)`` and ``end(m)`` are releases (possible once the
    Read-Acq & Write-Rel property is ablated); ``m-End`` sorts after
    ``m-Begin``, so the ``begin(m)`` trigger then tests ``end(m)``.
    """
    if not config.enable_delay_injection or config.delay <= 0:
        return {}
    plan: Dict[OpRef, DelaySpec] = {}
    for sync in sorted(inference.releases, key=SyncOp.display):
        site = sync.op
        if site.optype is OpType.EXIT:
            trigger = OpRef(site.name, OpType.ENTER)
        else:
            trigger = site
        plan[trigger] = DelaySpec(duration=config.delay, site=site)
    return plan


__all__ = ["build_delay_plan"]
