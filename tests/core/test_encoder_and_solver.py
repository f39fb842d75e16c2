"""Unit tests for the LP encoder (Eq. 1–8) and solver interpretation,
using hand-built observation stores."""


from repro.core import ObservationStore, SherlockConfig, infer
from repro.core.encoder import build_model
from repro.core.windows import Window
from repro.trace import (
    Role,
    SyncOp,
    TraceLog,
    begin_of,
    end_of,
    read_of,
    write_of,
)


def make_window(rel_refs, acq_refs, pair=None, run_id=0, racy=False):
    window = Window(
        pair_key=pair or (write_of("C::x"), read_of("C::x")),
        run_id=run_id,
        a_time=0.0,
        b_time=1.0,
        racy=racy,
    )
    for ref in rel_refs:
        window.release_side[ref] = window.release_side.get(ref, 0) + 1
    for ref in acq_refs:
        window.acquire_side[ref] = window.acquire_side.get(ref, 0) + 1
    return window


def make_store(windows):
    store = ObservationStore()
    store.ingest_run(TraceLog(), windows)
    return store


REL = end_of("Lib::Release")
ACQ = begin_of("Lib::Acquire")
CONFIG = SherlockConfig()


def test_single_shared_cover_is_inferred():
    # One release/acquire pair covering three windows must be inferred.
    windows = [make_window([REL], [ACQ]) for _ in range(3)]
    result = infer(make_store(windows), CONFIG)
    assert SyncOp(REL, Role.RELEASE) in result.releases
    assert SyncOp(ACQ, Role.ACQUIRE) in result.acquires


def test_one_window_noise_not_worth_inferring():
    # A variable covering a single window costs more than paying the
    # window's penalty (the sparsity regularizer at work).
    noise = end_of("Lib::Noise")
    windows = [make_window([REL], [ACQ]) for _ in range(3)]
    windows.append(
        make_window([noise], [ACQ], pair=(write_of("C::y"), read_of("C::y")))
    )
    result = infer(make_store(windows), CONFIG)
    assert SyncOp(noise, Role.RELEASE) not in result.releases


def test_racy_windows_removed_from_coverage():
    racy_pair = (write_of("C::r"), write_of("C::r"))
    windows = [
        make_window([write_of("C::r")], [], pair=racy_pair, racy=True)
    ]
    store = make_store(windows)
    assert store.coverage_windows() == []
    result = infer(store, CONFIG)
    assert not result.syncs


def test_race_removal_ablation_restores_pair_windows():
    racy_pair = (write_of("C::r"), write_of("C::r"))
    # One racy window marks the pair; a healthy window of the same pair
    # would normally be removed too.
    windows = [
        make_window([write_of("C::r")], [], pair=racy_pair, racy=True),
        make_window([REL], [ACQ], pair=racy_pair),
    ]
    store = make_store(windows)
    assert len(store.coverage_windows(race_removal=True)) == 0
    assert len(store.coverage_windows(race_removal=False)) == 1


def test_without_mostly_protected_nothing_inferred():
    windows = [make_window([REL], [ACQ]) for _ in range(5)]
    config = CONFIG.without(hyp_mostly_protected=False)
    result = infer(make_store(windows), config)
    assert not result.syncs


def test_rare_hypothesis_penalizes_frequent_ops():
    # A popular op occurring 30x per window loses to a once-per-window op.
    popular = read_of("C::hot")
    windows = []
    for _ in range(4):
        w = make_window([REL], [ACQ])
        w.acquire_side[popular] = 30
        windows.append(w)
    result = infer(make_store(windows), CONFIG)
    assert SyncOp(ACQ, Role.ACQUIRE) in result.acquires
    assert SyncOp(popular, Role.ACQUIRE) not in result.acquires


def test_single_role_constraint_forbids_double_role():
    # A library API demanded as both begin-acquire and end-release can
    # only win one role.
    api = "Lib::Upgrade"
    store = ObservationStore()
    log = TraceLog()
    windows = [
        make_window([end_of(api)], [begin_of(api)]) for _ in range(4)
    ]
    store.ingest_run(log, windows)
    store.library_names.add(api)
    result = infer(store, CONFIG)
    both = (
        SyncOp(begin_of(api), Role.ACQUIRE) in result.acquires
        and SyncOp(end_of(api), Role.RELEASE) in result.releases
    )
    assert not both

    # Without the constraint, both roles are allowed.
    result2 = infer(store, CONFIG.without(prop_single_role=False))
    both2 = (
        SyncOp(begin_of(api), Role.ACQUIRE) in result2.acquires
        and SyncOp(end_of(api), Role.RELEASE) in result2.releases
    )
    assert both2


def test_capability_ablation_lets_reads_release():
    # With Read-Acq & Write-Rel removed, a read may serve as a release.
    only_read = read_of("C::odd")
    windows = [make_window([only_read], [ACQ]) for _ in range(4)]
    strict = infer(make_store(windows), CONFIG)
    assert SyncOp(only_read, Role.RELEASE) not in strict.releases
    loose = infer(
        make_store(windows), CONFIG.without(prop_read_acq_write_rel=False)
    )
    assert SyncOp(only_read, Role.RELEASE) in loose.releases


def test_model_stats_exposed():
    windows = [make_window([REL], [ACQ])]
    result = infer(make_store(windows), CONFIG)
    assert result.n_variables >= 2
    assert result.backend in ("scipy", "revised-simplex")
    assert "InferenceResult" in repr(result)


def test_empty_store_gives_empty_inference():
    result = infer(ObservationStore(), CONFIG)
    assert not result.syncs
    assert result.backend == "empty"


def test_build_model_reports_registry():
    windows = [make_window([REL, write_of("C::x")], [ACQ, read_of("C::x")])]
    model, registry = build_model(make_store(windows), CONFIG)
    assert len(registry) == 4
    assert model.stats()["variables"] >= 4
