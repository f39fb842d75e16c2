"""Schedule fuzzing, trace sanitization, and differential oracles.

The fuzz layer answers the question the unit-test suite cannot: does the
pipeline stay *well-formed and stable* across many interleavings, not
just the handful our tests happen to pick?  It sweeps scheduler seeds
(and optionally the kernel's :mod:`~repro.sim.schedule` policy), runs the
full Observer → Solver → Perturber pipeline per schedule, validates every
emitted trace against the sanitizer's well-formedness invariants, and
checks inference quality with differential oracles (ground-truth scoring,
replay determinism, λ-stability).

Entry points::

    python -m repro fuzz --app app7_statsd --schedules 50 --engine process:4
    report = repro.fuzz.run_campaign(CampaignConfig(app_ids=["App-7"]))
"""

from .campaign import (
    CampaignConfig,
    CampaignReport,
    ScheduleResult,
    run_campaign,
)
from .oracles import OracleResult, lambda_stability_range
from .sanitizer import TraceSanitizer, Violation, sanitize_execution, trace_digest

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "OracleResult",
    "ScheduleResult",
    "TraceSanitizer",
    "Violation",
    "lambda_stability_range",
    "run_campaign",
    "sanitize_execution",
    "trace_digest",
]
