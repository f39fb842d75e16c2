"""Unit tests for SherlockConfig, the candidate registry, and the
delay-plan builder."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import CandidateRegistry, SherlockConfig, TABLE5_ABLATIONS
from repro.core.perturber import build_delay_plan
from repro.core.solver import InferenceResult
from repro.lp import Model
from repro.sim.kernel import DelaySpec
from repro.trace import (
    OpRef,
    OpType,
    Role,
    SyncOp,
    begin_of,
    end_of,
    read_of,
    write_of,
)

ROOT = Path(__file__).resolve().parents[2]


class TestConfig:
    def test_defaults_match_paper(self):
        config = SherlockConfig()
        assert config.near == 1.0
        assert config.window_cap == 15
        assert config.lam == 0.2
        assert config.rare_coef == 0.1
        assert config.delay == 0.1
        assert config.rounds == 3

    def test_validate_accepts_defaults(self):
        SherlockConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("near", 0.0),
            ("window_cap", 0),
            ("lam", -1.0),
            ("threshold", 0.0),
            ("threshold", 1.5),
            ("rounds", 0),
            ("delay", -0.1),
        ],
    )
    def test_validate_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            SherlockConfig(**{field: value}).validate()

    def test_without_returns_modified_copy(self):
        base = SherlockConfig()
        changed = base.without(lam=5.0, rounds=1)
        assert changed.lam == 5.0 and changed.rounds == 1
        assert base.lam == 0.2 and base.rounds == 3

    def test_table5_ablations_complete(self):
        assert len(TABLE5_ABLATIONS) == 7
        assert TABLE5_ABLATIONS["SherLock"] == {}

    @pytest.mark.parametrize(
        "backend",
        ["auto", "scipy", "highs", "simplex", "revised-simplex"],
    )
    def test_known_backends_validate(self, backend):
        assert SherlockConfig(backend=backend).backend == backend

    def test_dense_tableau_is_not_a_production_backend(self):
        """The dense tableau is a test oracle (``tests/oracles``), not a
        backend: the registry holds the two solvers and their aliases,
        the config rejects the old name, and ``repro.lp`` no longer
        exports the tableau."""
        import repro.lp
        from repro.lp.backends import available_backends

        assert available_backends() == (
            "auto", "scipy", "highs", "simplex", "revised-simplex"
        )
        with pytest.raises(ValueError, match="unknown LP backend"):
            SherlockConfig(backend="dense-tableau")
        assert not hasattr(repro.lp, "solve_simplex")

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown LP backend"):
            SherlockConfig(backend="cplex")


class TestCandidateRegistry:
    def test_capability_enforced(self):
        registry = CandidateRegistry(Model())
        assert registry.var(read_of("C::f"), Role.RELEASE) is None
        assert registry.var(write_of("C::f"), Role.ACQUIRE) is None
        assert registry.var(begin_of("C::m"), Role.RELEASE) is None
        assert registry.var(end_of("C::m"), Role.ACQUIRE) is None
        assert registry.var(read_of("C::f"), Role.ACQUIRE) is not None

    def test_capability_ablation_allows_everything(self):
        registry = CandidateRegistry(Model(), enforce_capability=False)
        assert registry.var(read_of("C::f"), Role.RELEASE) is not None

    def test_variables_are_cached(self):
        registry = CandidateRegistry(Model())
        a = registry.var(read_of("C::f"), Role.ACQUIRE)
        b = registry.var(read_of("C::f"), Role.ACQUIRE)
        assert a is b
        assert len(registry) == 1

    def test_lookup_never_creates(self):
        registry = CandidateRegistry(Model())
        assert registry.lookup(read_of("C::f"), Role.ACQUIRE) is None
        registry.var(read_of("C::f"), Role.ACQUIRE)
        assert registry.lookup(read_of("C::f"), Role.ACQUIRE) is not None

    def test_side_helpers_filter_incapable(self):
        registry = CandidateRegistry(Model())
        refs = [read_of("C::f"), write_of("C::f"), begin_of("C::m"),
                end_of("C::m")]
        released = registry.side_vars(refs, Role.RELEASE)
        acquired = registry.side_vars(refs, Role.ACQUIRE)
        assert [v.name for v in released] == [
            "rel:write:C::f", "rel:exit:C::m"
        ]
        assert [v.name for v in acquired] == [
            "acq:read:C::f", "acq:enter:C::m"
        ]
        # A side is looked up once; the same ordered refs hit the memo.
        assert registry.side_vars(list(refs), Role.RELEASE) is released
        assert len(registry) == 4

    def test_unit_bounds(self):
        registry = CandidateRegistry(Model())
        var = registry.var(read_of("C::f"), Role.ACQUIRE)
        assert var.lower == 0.0 and var.upper == 1.0


class TestDelayPlan:
    def _inference(self, *releases):
        result = InferenceResult()
        result.releases = set(releases)
        return result

    def test_method_release_triggers_at_call(self):
        inference = self._inference(SyncOp(end_of("C::m"), Role.RELEASE))
        plan = build_delay_plan(inference, SherlockConfig())
        trigger = OpRef("C::m", OpType.ENTER)
        assert trigger in plan
        spec = plan[trigger]
        assert isinstance(spec, DelaySpec)
        assert spec.site == end_of("C::m")
        assert spec.duration == pytest.approx(0.1)

    def test_shared_trigger_tests_the_method_exit(self):
        """With both ``begin(m)`` and ``end(m)`` releases (Read-Acq &
        Write-Rel ablated) the shared ``begin(m)`` trigger tests
        ``end(m)``."""
        inference = self._inference(
            SyncOp(begin_of("C::m"), Role.RELEASE),
            SyncOp(end_of("C::m"), Role.RELEASE),
        )
        plan = build_delay_plan(inference, SherlockConfig())
        assert list(plan) == [begin_of("C::m")]
        assert plan[begin_of("C::m")].site == end_of("C::m")

    def test_shared_trigger_site_does_not_depend_on_hash_seed(self):
        """The set of releases iterates in hash order, which changes
        with ``PYTHONHASHSEED``; the plan must not."""
        script = (
            "from repro.core import SherlockConfig\n"
            "from repro.core.perturber import build_delay_plan\n"
            "from repro.core.solver import InferenceResult\n"
            "from repro.trace import Role, SyncOp, begin_of, end_of\n"
            "names = [f'C{i}::m{i}' for i in range(16)]\n"
            "releases = {SyncOp(op(n), Role.RELEASE)\n"
            "            for n in names for op in (begin_of, end_of)}\n"
            "plan = build_delay_plan(\n"
            "    InferenceResult(releases=releases), SherlockConfig())\n"
            "for trigger, spec in plan.items():\n"
            "    print(trigger.display(), spec.site.display())\n"
        )
        outputs = {}
        for hash_seed in ("0", "2", "7"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(ROOT / "src"), env.get("PYTHONPATH", "")]
            )
            outputs[hash_seed] = subprocess.run(
                [sys.executable, "-c", script],
                check=True,
                capture_output=True,
                text=True,
                env=env,
            ).stdout
        assert outputs["0"] == outputs["2"] == outputs["7"]
        assert outputs["0"].splitlines()[0] == "C0::m0-Begin C0::m0-End"
        assert len(outputs["0"].splitlines()) == 16

    def test_write_release_triggers_at_write(self):
        inference = self._inference(SyncOp(write_of("C::f"), Role.RELEASE))
        plan = build_delay_plan(inference, SherlockConfig())
        assert OpRef("C::f", OpType.WRITE) in plan

    def test_disabled_injection_gives_empty_plan(self):
        inference = self._inference(SyncOp(write_of("C::f"), Role.RELEASE))
        config = SherlockConfig(enable_delay_injection=False)
        assert build_delay_plan(inference, config) == {}

    def test_zero_delay_gives_empty_plan(self):
        inference = self._inference(SyncOp(write_of("C::f"), Role.RELEASE))
        assert build_delay_plan(inference, SherlockConfig(delay=0.0)) == {}
