"""Benchmark entry point: each workload run in fresh interpreters.

    python3 perfbench/run.py --workload paper-infer --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py                       # all five workloads
    python3 perfbench/run.py --smoke --trace 1     # scaled down, traced
    python3 perfbench/run.py --check-determinism   # hash-seed probe only

Children run with ``PYTHONHASHSEED=0`` (reports depend on set order),
``src/`` on the path, one BLAS thread, and the default serial engine.
An untraced run (``--trace 0``) measures set-up in several fresh
interpreters and reports every end-to-end metric of ``BENCHMARK.json``;
a traced run (``--trace 1``) reports every per-layer metric.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
#: Fresh interpreters per untraced run whose set-up is timed, the
#: measuring one included; ``setup_s`` is their median.
SETUP_SAMPLES = 5
HASH_SEED = "0"
#: The second hash seed ``--check-determinism`` compares against.
OTHER_HASH_SEED = "2"
#: A run whose children are still going after this long is killed and
#: fails, keeping every run under three minutes.
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return json.load(fp)


def child_env(hash_seed: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(
    mode: str,
    workload: str,
    args: argparse.Namespace,
    seed: int,
    deadline: float,
    hash_seed: str = HASH_SEED,
    trace_out: Optional[str] = None,
) -> Tuple[float, Optional[Dict]]:
    """Run one child, killed at ``deadline`` (``time.monotonic``);
    returns (seconds until it was set up, its result)."""
    workdir = WORK_DIR / f"{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--mode", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(hash_seed), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready: Optional[float] = None
    lines: List[str] = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"{workload}: {mode} child exited with {proc.returncode}")
    return ready, (json.loads(lines[-1]) if mode != "setup" else None)


def run_workload(
    workload: str, seed: int, args: argparse.Namespace, trace_out: Optional[str]
) -> Dict:
    """One run of one workload: set-up probes, then the measuring child."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    samples = 1 if args.trace or args.smoke else SETUP_SAMPLES
    setup = [
        spawn("setup", workload, args, seed, deadline)[0] for _ in range(samples - 1)
    ]
    ready, result = spawn(
        "measure", workload, args, seed, deadline, trace_out=trace_out
    )
    if not args.trace:
        setup.append(ready)
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_samples"] = setup
    return result


def check_determinism(args: argparse.Namespace) -> Dict:
    """paper-infer report digests under two hash seeds; lists the
    (app, seed) pairs whose reports differ.  Reported, never gated."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    digests = []
    for hash_seed in (HASH_SEED, OTHER_HASH_SEED):
        _, result = spawn(
            "digests", "paper-infer", args, args.seed, deadline, hash_seed=hash_seed
        )
        digests.append(result["digests"])
    differ = [a[:2] for a, b in zip(*digests) if a != b]
    return {
        "hash_seeds": [int(HASH_SEED), int(OTHER_HASH_SEED)],
        "reports": len(digests[0]),
        "differ": differ,
    }


def trace_path(base: Optional[str], workload: str, several: bool) -> Optional[str]:
    if not base:
        return None
    path = os.path.abspath(base)
    if several:
        stem, ext = os.path.splitext(path)
        path = f"{stem}.{workload}{ext}"
    return path


def summarize(
    runs: Dict[str, List[Dict]], units: Dict[str, str], several: bool
) -> Dict[str, Dict]:
    """Print every metric, failure and sample count; returns the
    metrics (medians over repeats) for the result line."""
    metrics: Dict[str, Dict] = {}
    for w, results in runs.items():
        for result in results:
            if set(result["metrics"]) != set(units):
                raise BenchError(f"{w} reported {sorted(result['metrics'])}")
            for problem in result["problems"]:
                print(f"{w}: FAILED {problem}")
        for name, unit in units.items():
            value = statistics.median(r["metrics"][name] for r in results)
            metrics[f"{w}.{name}" if several else name] = {"value": value, "unit": unit}
            print(f"{w:15s} {name:32s} {value:14.6g} {unit}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{w:15s} ops measured: {sum(r['ops'] for r in results)}; "
              f"failed: {failed}/{attempted}")
        tail = results[0].get("tail")
        if tail:
            print(f"{w:15s} op p{tail['percentile']}: {tail['ms']:.6g} ms "
                  f"(n={results[0]['ops']})")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help=f"measuring time per run (default {spec['run_seconds']}, "
                        "0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, reporting per-layer metrics")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, seeds seed..seed+K-1; medians reported")
    parser.add_argument("--trace-out", help="write the traced pass's spans here "
                        "as JSON lines (one file per workload when several run)")
    parser.add_argument("--out", help="write every run's full result here as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="one op per workload and one set-up: a quick full check")
    parser.add_argument("--check-determinism", action="store_true",
                        help="only compare paper-infer reports across two hash seeds")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.check_determinism:
            probe = check_determinism(args)
            print(f"{len(probe['differ'])} of {probe['reports']} paper-infer reports "
                  f"differ between PYTHONHASHSEED={HASH_SEED} and {OTHER_HASH_SEED}")
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fp:
                    json.dump({"determinism": probe}, fp, indent=2)
            print(json.dumps({"determinism": probe}))
            return 0
        workloads = args.workload or names
        several = len(workloads) > 1
        runs = {
            w: [
                run_workload(w, args.seed + r, args,
                             trace_path(args.trace_out, w, several))
                for r in range(args.repeats)
            ]
            for w in workloads
        }
        units = {
            m["name"]: m["unit"]
            for m in spec["per_layer" if args.trace else "end_to_end"]
        }
        metrics = summarize(runs, units, several)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    attempted = sum(r["attempted"] for rs in runs.values() for r in rs)
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "hash_seed": int(HASH_SEED),
                       "runs": runs}, fp, indent=2)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
