"""The traced pass: every site fires, bindings come back, outputs hold."""

import inspect
import sys

import pytest

from perfbench.tracing import SITES, Recorder, Site, layer_metrics, resolve, traced
from perfbench.workloads import WORKLOADS

#: A layer each workload must reach, so a workload that silently
#: stops exercising its reason for existing fails here.
SIGNATURE_LAYER = {
    "paper-infer": "lp.backends",
    "paper-ablation": "runtime.cache",
    "scale-infer": "lp.presolve",
    "scale-predict": "predict.witness",
    "fuzz-convert": "predict.convert",
}


def _bindings():
    """Every module attribute under ``repro`` and every site's class
    attribute, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                out[(name, attr)] = id(value)
    for site in SITES:
        owner, attr, _ = resolve(site)
        if inspect.isclass(owner):
            out[(owner.__qualname__, attr)] = id(owner.__dict__[attr])
    return out


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Op 0 of every workload untraced, then traced, as ``--smoke`` runs it."""
    runs = {}
    for name, cls in WORKLOADS.items():
        workload = cls(0, str(tmp_path_factory.mktemp(name)))
        call, score = workload.op(0)
        plain = score(call())
        workload.select_pass(traced=True)
        recorder = Recorder()
        with traced(recorder):
            call, score = workload.op(0)
            with recorder.op(0):
                result = call()
        runs[name] = (plain, score(result), recorder)
    return runs


def test_every_site_records_a_call(smoke_runs):
    called = {span[0] for _, _, rec in smoke_runs.values() for span in rec.spans}
    missing = [site.target for site in SITES if site.label not in called]
    assert not missing, f"sites no smoke workload reached: {missing}"


@pytest.mark.parametrize("workload", sorted(SIGNATURE_LAYER))
def test_workload_reaches_its_layer(smoke_runs, workload):
    layers = {span[0].split(":")[0] for span in smoke_runs[workload][2].spans}
    assert SIGNATURE_LAYER[workload] in layers


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_identical_traced_and_untraced(smoke_runs, workload):
    plain, spanned, _ = smoke_runs[workload]
    assert not plain.problems and not spanned.problems
    assert plain.digest == spanned.digest


def test_bindings_restored():
    recorder = Recorder()
    with traced(recorder):
        # Imports are complete now, so the snapshot covers every module.
        pass
    before = _bindings()
    with traced(recorder):
        during = _bindings()
    assert _bindings() == before
    assert during != before


def test_stale_site_fails_loudly():
    with pytest.raises(AttributeError):
        resolve(Site("sim", "repro.sim.runner:no_such_function"))
    with pytest.raises(KeyError):
        resolve(Site("sim", "repro.sim.runner:RunOptions.no_such_method"))


def test_self_time_subtracts_children():
    recorder = Recorder()
    with recorder.op(0):
        index, token = recorder.open("sim:run_unit_test")
        recorder.close(index, token)
    root, child = recorder.spans
    assert child[3] == 0 and child[4] == 0
    assert root[5] == pytest.approx(child[2] - child[1])
    metrics = layer_metrics(recorder, untraced_s=root[2] - root[1], trace_overhead=0.0)
    assert metrics["sim.calls"] == 1
    assert metrics["bench.unattributed_frac"] == pytest.approx(
        (root[2] - root[1] - root[5]) / (root[2] - root[1])
    )
