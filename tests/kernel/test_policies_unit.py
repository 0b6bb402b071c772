"""Unit coverage for the batched policy layer's option branches.

The conformance matrix drives the default controller configurations end
to end; these tests pin the branches it never reaches — non-default
OD-RL options (SARSA, absolute actions, energy-weighted rewards, raw
telemetry), the graceful-degradation repair path, the per-field
compatibility checks behind :func:`build_batch_policy`'s fallback, and
the model-based infeasible-budget exits.  Every option branch that
batches is also checked bit-for-bit against the serial controllers it
replaces.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines.greedy import GreedyAscentController, SteepestDropController
from repro.baselines.maxbips import MaxBIPSController
from repro.core.controller import ODRLController
from repro.core.reward import RewardParams
from repro.core.state import StateEncoder
from repro.faults.sanitizer import SanitizerPolicy
from repro.kernel.epoch import EpochKernel
from repro.kernel.policies import (
    BatchMaxBIPS,
    BatchModelBased,
    BatchODRL,
    PerRunPolicy,
    build_batch_policy,
)
from repro.manycore import default_system
from repro.manycore.hetero import big_little_map
from repro.workloads import mixed_workload

N_CORES = 4
CFG = default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)
WL = mixed_workload(N_CORES, seed=0)
N_RUNS = 2


def _drive(policy, n_epochs, active=None):
    """Advance a batch policy against a fresh kernel; return the level
    trajectory it produced (one ``(n_runs, n_cores)`` array per epoch)."""
    kernel = EpochKernel([CFG] * policy.n_runs, [WL] * policy.n_runs, n_epochs=n_epochs)
    trajectory = []
    bobs = None
    for _ in range(n_epochs):
        levels = policy.decide(bobs, active)
        trajectory.append(np.array(levels, copy=True))
        bobs = kernel.step(levels, active=active)
    return trajectory, bobs


def _serial_trajectory(controllers, n_epochs):
    """The same telemetry loop, decided by the serial controllers."""
    n_runs = len(controllers)
    kernel = EpochKernel([CFG] * n_runs, [WL] * n_runs, n_epochs=n_epochs)
    trajectory = []
    rows = [None] * n_runs
    for _ in range(n_epochs):
        levels = np.stack([c.decide(rows[r]) for r, c in enumerate(controllers)])
        trajectory.append(levels.copy())
        bobs = kernel.step(levels)
        rows = [bobs.row(r) for r in range(n_runs)]
    return trajectory


class TestODRLOptionParity:
    """Non-default OD-RL options must batch, and batch bit-identically."""

    @pytest.mark.parametrize(
        "options",
        [
            {"td_rule": "sarsa"},
            {"action_mode": "absolute"},
            {"degradation": False},
            {"reward_params": RewardParams(energy_weight=0.1)},
        ],
        ids=["sarsa", "absolute", "raw-telemetry", "energy-weight"],
    )
    def test_option_batches_bit_identically(self, options):
        batched = build_batch_policy(
            [ODRLController(CFG, seed=s, **options) for s in range(N_RUNS)]
        )
        assert isinstance(batched, BatchODRL)
        got, _ = _drive(batched, n_epochs=12)
        want = _serial_trajectory(
            [ODRLController(CFG, seed=s, **options) for s in range(N_RUNS)],
            n_epochs=12,
        )
        for epoch, (g, w) in enumerate(zip(got, want)):
            np.testing.assert_array_equal(g, w, err_msg=f"epoch {epoch}")

    def test_raw_telemetry_reports_no_degradation_extras(self):
        policy = build_batch_policy(
            [ODRLController(CFG, seed=s, degradation=False) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        assert policy.degradation_extras(0) is None


class TestODRLDegradation:
    def test_nonfinite_agent_repaired_and_parked(self):
        policy = build_batch_policy(
            [ODRLController(CFG, seed=s) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        kernel = EpochKernel([CFG] * N_RUNS, [WL] * N_RUNS, n_epochs=4)
        bobs = kernel.step(policy.decide(None))
        policy.q[0, 1] = np.nan  # corrupt run 0's agent on core 1
        levels = policy.decide(bobs)
        assert policy.agents_repaired == [1, 0]
        assert levels[0, 1] == 0  # safe-state reflex parks the core
        assert np.isfinite(policy.q).all()  # table reinitialized

    def test_fully_masked_update_learns_nothing(self):
        policy = build_batch_policy(
            [ODRLController(CFG, seed=s) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        _drive(policy, n_epochs=3)
        q_before = policy.q.copy()
        counts_before = list(policy.step_counts)
        states = np.zeros((N_RUNS, N_CORES), dtype=int)
        actions = np.zeros((N_RUNS, N_CORES), dtype=int)
        rewards = np.ones((N_RUNS, N_CORES))
        masks = np.zeros((N_RUNS, N_CORES), dtype=bool)
        policy._update(states, actions, rewards, states, actions, masks, None)
        np.testing.assert_array_equal(policy.q, q_before)
        assert policy.step_counts == counts_before

    def test_validated_agents_check_updated_cells(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        policy = build_batch_policy(
            [ODRLController(CFG, seed=s) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        assert policy._agents_validate
        _drive(policy, n_epochs=4)  # TD updates run through check_q_table
        assert all(c > 0 for c in policy.step_counts)

    def test_inactive_rows_skip_reallocation(self):
        policy = build_batch_policy(
            [ODRLController(CFG, realloc_period=3, seed=s) for s in range(N_RUNS)]
        )
        assert isinstance(policy, BatchODRL)
        alloc_frozen = policy.allocation[1].copy()
        active = np.array([True, False])
        _drive(policy, n_epochs=5, active=active)
        # the inactive run's guard and allocation stay exactly as a
        # shorter standalone run left them
        assert policy.guard[1] == 0.0
        np.testing.assert_array_equal(policy.allocation[1], alloc_frozen)


class TestMaxBIPSBatch:
    def test_infeasible_budget_parks_all_cores(self):
        starved = dataclasses.replace(CFG, power_budget=1e-6)
        policy = build_batch_policy(
            [MaxBIPSController(CFG), MaxBIPSController(starved)]
        )
        assert isinstance(policy, BatchMaxBIPS)  # budgets may differ
        levels = policy.decide(None)
        assert (levels[1] == 0).all()  # serial solve_dp's early return
        np.testing.assert_array_equal(levels[0], MaxBIPSController(CFG).decide(None))


class TestModelBasedBatch:
    """Greedy ascent and steepest drop share the MaxBIPS policy class."""

    @pytest.mark.parametrize("cls", [GreedyAscentController, SteepestDropController])
    def test_infeasible_budget_parks_all_cores(self, cls):
        starved = dataclasses.replace(CFG, power_budget=1e-6)
        policy = build_batch_policy([cls(CFG), cls(starved)])
        assert type(policy) is BatchMaxBIPS is BatchModelBased
        levels = policy.decide(None)
        assert (levels[1] == 0).all()  # nothing fits: everything at the bottom
        np.testing.assert_array_equal(levels[0], cls(CFG).decide(None))



class _TweakedODRL(ODRLController):
    pass


class _TweakedMaxBIPS(MaxBIPSController):
    pass


class _TweakedGreedy(GreedyAscentController):
    pass


def _odrl_pair(**second_kwargs):
    return [ODRLController(CFG, seed=0), ODRLController(CFG, seed=1, **second_kwargs)]


class TestCompatFallback:
    """Each per-field mismatch must decline to the serial fallback."""

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one controller"):
            build_batch_policy([])
        with pytest.raises(ValueError, match="at least one controller"):
            PerRunPolicy([])

    @pytest.mark.parametrize(
        "make_group",
        [
            lambda: [_TweakedODRL(CFG), ODRLController(CFG)],
            lambda: [
                ODRLController(
                    CFG, thermal_limit=CFG.technology.t_ambient + 40.0
                ),
                ODRLController(
                    CFG, thermal_limit=CFG.technology.t_ambient + 40.0
                ),
            ],
            lambda: _odrl_pair(action_mode="absolute"),
            lambda: _odrl_pair(realloc_period=5),
            lambda: _odrl_pair(degradation=False),
            lambda: _odrl_pair(
                encoder=StateEncoder(n_levels=CFG.n_levels, include_level=True)
            ),
            lambda: _odrl_pair(reward_params=RewardParams(overshoot_weight=2.0)),
            lambda: _odrl_pair(
                sanitizer_policy=SanitizerPolicy(max_staleness_epochs=1)
            ),
            lambda: _odrl_pair(gamma=0.7),
            lambda: _odrl_pair(hetero=big_little_map(N_CORES)),
            lambda: [_TweakedMaxBIPS(CFG), MaxBIPSController(CFG)],
            lambda: [
                MaxBIPSController(CFG, method="exhaustive"),
                MaxBIPSController(CFG, method="exhaustive"),
            ],
            lambda: [
                MaxBIPSController(CFG, n_quanta=200),
                MaxBIPSController(CFG, n_quanta=256),
            ],
            lambda: [
                MaxBIPSController(CFG),
                MaxBIPSController(CFG, hetero=big_little_map(N_CORES)),
            ],
            lambda: [ODRLController(CFG), MaxBIPSController(CFG)],
            lambda: [MaxBIPSController(CFG), ODRLController(CFG)],
            lambda: [GreedyAscentController(CFG), SteepestDropController(CFG)],
            lambda: [_TweakedGreedy(CFG), GreedyAscentController(CFG)],
            lambda: [
                SteepestDropController(CFG),
                SteepestDropController(CFG, hetero=big_little_map(N_CORES)),
            ],
        ],
        ids=[
            "odrl-subclass",
            "thermal-limit",
            "action-mode",
            "realloc-period",
            "degradation-flag",
            "encoder",
            "reward-params",
            "sanitizer-policy",
            "agent-gamma",
            "floors-caps",
            "maxbips-subclass",
            "exhaustive-method",
            "n-quanta",
            "estimator-tables",
            "mixed-kinds",
            "model-first-mixed-kinds",
            "mixed-heuristics",
            "greedy-subclass",
            "heuristic-estimator-tables",
        ],
    )
    def test_mismatch_falls_back_to_serial(self, make_group):
        policy = build_batch_policy(make_group())
        assert isinstance(policy, PerRunPolicy)

    def test_profiled_controller_falls_back(self):
        first = ODRLController(CFG, seed=0)
        first.profiler = object()
        policy = build_batch_policy([first, ODRLController(CFG, seed=1)])
        assert isinstance(policy, PerRunPolicy)
