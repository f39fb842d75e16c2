"""JSON serialization for SherLock reports.

Lets a pipeline run be archived and re-scored without re-execution —
the analysis layer and external tools (dashboards, CI diffing) can
consume the same artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, TextIO

from ..trace.optypes import OpRef, OpType, Role, SyncOp
from .pipeline import SherlockReport
from .solver import InferenceResult


def _sync_to_dict(sync: SyncOp, probability: float) -> Dict[str, Any]:
    return {
        "name": sync.op.name,
        "op": sync.op.optype.value,
        "role": sync.role.value,
        "probability": probability,
    }


def sync_from_dict(data: Dict[str, Any]) -> SyncOp:
    """Rebuild a :class:`SyncOp` from its serialized form."""
    return SyncOp(OpRef(data["name"], OpType(data["op"])), Role(data["role"]))


def inference_to_dict(result: InferenceResult) -> Dict[str, Any]:
    # Which backend solved the LP is observability (it lives on
    # InferenceResult and RunMetrics) and is deliberately *not*
    # serialized: reports are backend-independent artifacts, and the
    # differential suite asserts the revised simplex and the
    # dense-tableau test oracle produce byte-identical report JSON.
    return {
        "objective": result.objective,
        "n_variables": result.n_variables,
        "n_constraints": result.n_constraints,
        "syncs": [
            _sync_to_dict(s, result.probabilities.get(s, 1.0))
            for s in sorted(result.syncs, key=lambda s: s.display())
        ],
    }


def report_to_dict(report: SherlockReport) -> Dict[str, Any]:
    """Serialize a full report (rounds, store stats, final inference)."""
    return {
        "app_id": report.app_id,
        "app_name": report.app_name,
        "config": {
            "near": report.config.near,
            "lam": report.config.lam,
            "rounds": report.config.rounds,
            "seed": report.config.seed,
            "delay": report.config.delay,
        },
        "store": dict(report.store.stats()),
        "rounds": [
            {
                "round": r.round_index,
                "windows": r.windows_total,
                "racy_pairs": r.racy_pairs_total,
                "events": r.events_observed,
                "delays": r.delays_injected,
                "errors": list(r.test_errors),
                "inference": inference_to_dict(r.inference),
            }
            for r in report.rounds
        ],
    }


def dump_report(report: SherlockReport, fp: TextIO, indent: int = 2) -> None:
    """Write a report as JSON."""
    json.dump(report_to_dict(report), fp, indent=indent)


def load_syncs(fp: TextIO) -> "set[SyncOp]":
    """Read back the final round's inferred syncs from a report JSON."""
    data = json.load(fp)
    final = data["rounds"][-1]["inference"]
    return {sync_from_dict(entry) for entry in final["syncs"]}


__all__ = [
    "dump_report",
    "inference_to_dict",
    "load_syncs",
    "report_to_dict",
    "sync_from_dict",
]
