"""Reports do not depend on ``PYTHONHASHSEED``.

String hashing decides the iteration order of a Python ``set``; a set
that reaches the LP encoder reorders rows and auxiliary columns, and
an LP with alternative optima then lands on a different vertex.  The
in-process determinism tests cannot see this, because one process has
one hash seed.  Here the same script runs in three subprocesses under
hash seeds 0, 2 and 7, and all three must print the same digests of:

* the round-0 LP of every paper and family app × seeds {0, 1}:
  variable names and bounds, constraint names, senses, term order and
  coefficient bits, and the objective's term order and bits;
* full 3-round reports on ``auto`` (HiGHS) of App-1, App-6 and App-8,
  the apps whose inferred sets moved with the hash seed;
* full 3-round reports on ``simplex`` of App-1, App-3 and App-5.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HASH_SEEDS = ("0", "2", "7")

_SCRIPT = """
import hashlib
import json

from repro.apps.registry import app_ids, family_app_ids, get_application
from repro.core import SherlockConfig
from repro.core.encoder import build_model
from repro.core.pipeline import Sherlock
from repro.core.serialize import report_to_dict


def sha(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def terms(expr):
    return [[v.name, float(c).hex()] for v, c in expr.terms.items()]


def model_dump(model):
    return {
        "variables": [[v.name, v.lower, v.upper] for v in model.variables],
        "constraints": [
            [c.name, c.sense, float(c.rhs).hex(), terms(c.expr)]
            for c in model.constraints
        ],
        "objective": [
            terms(model.objective),
            float(model.objective.constant).hex(),
        ],
    }


out = {}
for app_id in app_ids() + family_app_ids():
    for seed in (0, 1):
        config = SherlockConfig(rounds=1, seed=seed)
        store = Sherlock(get_application(app_id), config).run().store
        model, _ = build_model(store, config)
        out[f"model/{app_id}/{seed}"] = sha(model_dump(model))
for backend, apps in (
    ("auto", ("App-1", "App-6", "App-8")),
    ("simplex", ("App-1", "App-3", "App-5")),
):
    for app_id in apps:
        for seed in (0, 1):
            config = SherlockConfig(rounds=3, seed=seed, backend=backend)
            report = Sherlock(get_application(app_id), config).run()
            out[f"report/{backend}/{app_id}/{seed}"] = sha(
                report_to_dict(report)
            )
print(json.dumps(out, sort_keys=True))
"""


def test_models_and_reports_identical_across_hash_seeds():
    procs = {}
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        procs[hash_seed] = subprocess.Popen(
            [sys.executable, "-c", _SCRIPT],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
        )
    digests = {}
    for hash_seed, proc in procs.items():
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0, stderr
        digests[hash_seed] = json.loads(stdout)

    base = digests[HASH_SEEDS[0]]
    assert len(base) == 10 * 2 + 12
    for hash_seed in HASH_SEEDS[1:]:
        differing = sorted(
            key for key in base if digests[hash_seed][key] != base[key]
        )
        assert not differing, (
            f"PYTHONHASHSEED={hash_seed} vs {HASH_SEEDS[0]}: {differing}"
        )
