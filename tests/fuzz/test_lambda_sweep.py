"""The λ-stability oracle against two from-scratch reference solves.

``lambda_stability_oracle`` re-solves the final store at λ·(1 ± 1%),
each probe a one-off ``infer``: the production ``build_model`` lowered
through the sparse :meth:`~repro.lp.Model.to_standard_form`.  Its
verdict must equal the one from two solves with the reference encoder
and the dense reference lowering (``reference_paths``), stable and
unstable schedules alike.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.registry import app_ids, family_app_ids, get_application
from repro.core import SherlockConfig
from repro.core.pipeline import Sherlock
from repro.fuzz.oracles import lambda_stability_oracle
from tests.oracles import reference_paths

PAPER_APP_IDS = app_ids() + family_app_ids()
ROOT = Path(__file__).resolve().parents[2]


def _report(app_id, seed, backend):
    config = SherlockConfig(rounds=3, seed=seed, backend=backend)
    return Sherlock(get_application(app_id), config).run()


@pytest.mark.parametrize("backend", ["auto", "simplex"])
@pytest.mark.parametrize("seed", [0, 6001, 6003])
@pytest.mark.parametrize("app_id", PAPER_APP_IDS)
def test_lambda_oracle_equals_two_reference_solves(app_id, seed, backend):
    report = _report(app_id, seed, backend)
    fast = lambda_stability_oracle(report)
    with reference_paths():
        slow = lambda_stability_oracle(report)
    assert fast == slow


_PINNED = """
import json
from repro.apps.registry import get_application
from repro.core import SherlockConfig
from repro.core.pipeline import Sherlock
from repro.fuzz.oracles import lambda_stability_oracle

out = []
for seed in (6001, 6003):
    for backend in ("auto", "simplex"):
        config = SherlockConfig(rounds=3, seed=seed, backend=backend)
        report = Sherlock(get_application("App-8"), config).run()
        out.append([seed, backend, lambda_stability_oracle(report).passed])
print(json.dumps(out))
"""


def test_known_unstable_schedules_stay_unstable():
    """App-8 keeps LP probabilities near the 0.9 threshold, so ±1% λ
    flips a borderline sync under seeds 6001 and 6003.  The encoder
    emits rows in sorted order, so the set of flipping schedules does
    not depend on the string-hash seed; the subprocess pins
    ``PYTHONHASHSEED=0``, the seed the benchmark uses, only so the run
    matches it exactly.  Agreement with the reference is the
    parametrized test's job."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    out = subprocess.run(
        [sys.executable, "-c", _PINNED],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env=env,
    )
    unstable = {
        (seed, backend)
        for seed, backend, passed in json.loads(out.stdout)
        if not passed
    }
    assert unstable == {(6001, "auto"), (6001, "simplex"), (6003, "auto")}
