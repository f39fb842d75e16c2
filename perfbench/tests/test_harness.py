"""The measuring loop, the metric names, and the command's contract."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.child import measure
from perfbench.stats import _rank, tail_percentile
from perfbench.tracing import PER_LAYER
from perfbench.workloads import WORKLOADS, Outcome, Workload

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Flaky(Workload):
    """Op 1 raises; the others succeed."""

    name = "flaky"
    quality_ops = 3

    def op(self, i):
        def call():
            if i == 1:
                raise RuntimeError("boom")
            return i

        return call, lambda result: Outcome(digest=str(result), tp=1)


def test_raising_op_is_counted_not_fatal(tmp_path):
    result = measure(Flaky(0, str(tmp_path)), seconds=0.0)
    # Three ops, then the replay of op 0.
    assert result["attempted"] == 4
    assert result["failed"] == 1
    assert "op 1 raised RuntimeError: boom" in result["problems"]
    assert result["metrics"]["precision"] == 1.0


def test_metric_names_match_benchmark_json(tmp_path):
    reported = set(measure(Flaky(0, str(tmp_path)), seconds=0.0)["metrics"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert reported | {"setup_s"} == end_to_end
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize(
    "n, p", [(500, 98), (1000, 99), (250, 96), (21, 52), (20, None)]
)
def test_tail_percentile_examples(n, p):
    assert tail_percentile(n) == p


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(1, 2001):
        p = tail_percentile(n)
        if p is None:
            assert n - _rank(51, n) < 10
            continue
        assert n - _rank(p, n) >= 10
        assert p == 99 or n - _rank(p + 1, n) < 10


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_prints_contract_line():
    proc = _run(ROOT, "--smoke", "--workload", "paper-infer")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(tmp_path, "--workload", "paper-infer", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
