"""One workload in a fresh interpreter, spawned by ``perfbench/run.py``.

Prints ``READY`` once set-up (imports, input build, one warm-up op) is
done, then, unless ``--mode setup``, one JSON line with the run's
result.  ``run.py`` pins ``PYTHONHASHSEED`` and ``PYTHONPATH`` for it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from perfbench.stats import percentile, tail_percentile
from perfbench.tracing import Recorder, layer_metrics, traced
from perfbench.workloads import WORKLOADS, Outcome, Workload, tracing_overhead

#: Most problem strings one result carries (the counts stay exact).
MAX_PROBLEMS = 20


@dataclass
class OpRecord:
    index: int
    seconds: float
    outcome: Optional[Outcome]
    problems: List[str]


def run_op(
    workload: Workload, i: int, recorder: Optional[Recorder] = None
) -> OpRecord:
    """Time one op; an op that raises is recorded as failed, not fatal."""
    call, score = workload.op(i)
    start = time.perf_counter()
    try:
        if recorder is None:
            result = call()
        else:
            with recorder.op(i):
                result = call()
        seconds = time.perf_counter() - start
        outcome = score(result)
    except Exception as exc:  # noqa: BLE001 - counted, run continues
        return OpRecord(
            i, time.perf_counter() - start, None,
            [f"op {i} raised {type(exc).__name__}: {exc}"],
        )
    return OpRecord(i, seconds, outcome, list(outcome.problems))


def timed_loop(workload: Workload, seconds: float) -> List[OpRecord]:
    """Closed loop with one caller: run ops until ``seconds`` passed,
    the quality batch ran and a block of ``cycle`` ops is complete."""
    records: List[OpRecord] = []
    start = time.perf_counter()
    i = 0
    while (
        i < workload.quality_ops
        or i % workload.cycle
        or time.perf_counter() - start < seconds
    ):
        records.append(run_op(workload, i))
        i += 1
    return records


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def _result(records: List[OpRecord], metrics: Dict[str, float], **extra: Any) -> Dict:
    problems = [p for r in records for p in r.problems]
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "problems": problems[:MAX_PROBLEMS],
        "metrics": metrics,
        **extra,
    }


def measure(workload: Workload, seconds: float) -> Dict:
    """The untraced run: end-to-end metrics except ``setup_s``."""
    records = timed_loop(workload, seconds)
    outcomes = {r.index: r.outcome for r in records if r.outcome is not None}
    try:
        replay = workload.replay_check(outcomes)
    except Exception as exc:  # noqa: BLE001 - counted, run continues
        replay = [f"replay raised {type(exc).__name__}: {exc}"]
    times_ms = [1000.0 * r.seconds for r in records]
    quality = [
        r.outcome for r in records[: workload.quality_ops] if r.outcome is not None
    ]
    tp = sum(o.tp for o in quality)
    tail = tail_percentile(len(times_ms))
    metrics = {
        "op_p50_ms": statistics.median(times_ms),
        "ops_per_s": 1000.0 * len(times_ms) / sum(times_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "precision": _ratio(tp, tp + sum(o.fp for o in quality)),
        "recall": _ratio(tp, tp + sum(o.fn for o in quality)),
    }
    return _result(
        records + [OpRecord(-1, 0.0, None, replay)],
        metrics,
        ops=len(times_ms),
        tail=None if tail is None else {
            "percentile": tail, "ms": percentile(times_ms, tail)
        },
    )


def measure_traced(
    workload: Workload, seconds: float, trace_out: Optional[str]
) -> Dict:
    """The traced run, per-layer metrics only: blocks of ``cycle`` ops
    alternate untraced and traced (the same ops both times, each pass
    on its own shared state) until ``seconds`` have passed, so machine
    drift hits both passes alike."""
    recorder = Recorder()
    plain: List[OpRecord] = []
    spanned: List[OpRecord] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        block = range(len(plain), len(plain) + workload.cycle)
        workload.select_pass(traced=False)
        plain += [run_op(workload, i) for i in block]
        workload.select_pass(traced=True)
        with traced(recorder):
            spanned += [run_op(workload, i, recorder) for i in block]
    for before, after in zip(plain, spanned):
        if before.outcome and after.outcome:
            if before.outcome.digest != after.outcome.digest:
                after.problems.append(f"op {after.index}: output changed under tracing")
    overhead = tracing_overhead(workload.probe_apps(), workload.base)
    metrics = layer_metrics(recorder, sum(r.seconds for r in plain), overhead)
    if trace_out:
        recorder.write(trace_out)
    return _result(plain + spanned, metrics, ops=len(plain))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "digests"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.smoke:
        workload.quality_ops = workload.cycle = 1
    workload.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "digests":
        digests = []
        for i in range(workload.quality_ops):
            call, score = workload.op(i)
            digests.append([*workload.key(i), score(call()).digest])
        result: Dict = {"digests": digests}
    elif args.trace:
        result = measure_traced(workload, args.seconds, args.trace_out)
    else:
        result = measure(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
