"""Differential properties: the stacked model-based solvers against their
serial referees, bit for bit.

* greedy-ascent / steepest-drop sort-and-scan solvers against the
  original ``heapq`` scans (kept verbatim in :mod:`heap_reference`);
* the stacked MaxBIPS knapsack (sliding-window row gather) against the
  serial :func:`repro.baselines.solve_dp`;
* the batched model-based policy's active rows against each run's serial
  ``decide`` on the same kernel observation, under ragged active masks.

Draws cover 1, 2, 3 and 8 levels, exact key ties (values rounded to one
decimal), non-concave and non-monotone marginal chains, and budgets
below the all-bottom and above the all-top chip power.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import solve_dp
from repro.baselines.estimator import LevelPredictions
from repro.baselines.greedy import (
    GreedyAscentController,
    SteepestDropController,
    greedy_ascent_stack,
    steepest_drop_stack,
)
from repro.baselines.maxbips import MaxBIPSController, solve_dp_stack
from repro.kernel.epoch import EpochKernel
from repro.kernel.policies import BatchModelBased, build_batch_policy
from repro.manycore import default_system
from repro.workloads import mixed_workload

from tests.property.heap_reference import _greedy_ascent, _steepest_drop

LEVEL_COUNTS = (1, 2, 3, 8)


@st.composite
def stacks(draw, min_power: float = 0.0):
    """``(power, ips, budgets)`` for a random stack of runs.

    Per-level increments are independent draws, so marginal chains are
    non-concave; throughput increments may be negative or zero.  With
    ``ties`` every value is rounded to one decimal, which makes equal
    keys (and zero power steps) common.
    """
    n_runs = draw(st.integers(1, 4))
    n_cores = draw(st.integers(1, 6))
    n_levels = draw(st.sampled_from(LEVEL_COUNTS))
    ties = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_runs, n_cores, n_levels)
    base = rng.uniform(min_power + 0.1, 2.0, shape[:2] + (1,))
    power = np.concatenate(
        [base, base + np.cumsum(rng.uniform(0.0, 1.0, shape)[..., 1:], axis=-1)],
        axis=-1,
    )
    ips = np.cumsum(rng.uniform(-0.2, 1.0, shape), axis=-1) + 2.0
    if ties:
        power, ips = np.round(power, 1), np.round(ips, 1)
    budgets = []
    for r in range(n_runs):
        bottom = float(np.sum(power[r, :, 0]))
        top = float(np.sum(power[r, :, -1]))
        mode = draw(st.sampled_from(("below", "between", "above", "bottom", "top")))
        if mode == "below":
            budgets.append(bottom * draw(st.floats(0.01, 0.99)))
        elif mode == "above":
            budgets.append(top * draw(st.floats(1.01, 2.0)))
        elif mode == "between":
            budgets.append(bottom + draw(st.floats(0.0, 1.0)) * (top - bottom))
        else:
            budgets.append(bottom if mode == "bottom" else top)
    return power, ips, budgets


def _rows(power, ips):
    return [LevelPredictions(power[r], ips[r]) for r in range(power.shape[0])]


@given(stacks())
@settings(max_examples=300, deadline=None)
def test_greedy_ascent_stack_matches_heap_scan(stack):
    power, ips, budgets = stack
    got = greedy_ascent_stack(power, ips, budgets)
    for r, pred in enumerate(_rows(power, ips)):
        np.testing.assert_array_equal(got[r], _greedy_ascent(pred, budgets[r]))


@given(stacks())
@settings(max_examples=300, deadline=None)
def test_steepest_drop_stack_matches_heap_scan(stack):
    power, ips, budgets = stack
    got = steepest_drop_stack(power, ips, budgets)
    for r, pred in enumerate(_rows(power, ips)):
        np.testing.assert_array_equal(got[r], _steepest_drop(pred, budgets[r]))


@given(stacks(min_power=0.05), st.integers(2, 60))
@settings(max_examples=300, deadline=None)
def test_dp_stack_matches_serial_solve_dp(stack, n_quanta):
    power, ips, budgets = stack
    got = solve_dp_stack(power, ips, np.array(budgets), n_quanta)
    for r, pred in enumerate(_rows(power, ips)):
        np.testing.assert_array_equal(got[r], solve_dp(pred, budgets[r], n_quanta))


CONTROLLER_CLASSES = (GreedyAscentController, SteepestDropController, MaxBIPSController)


@given(
    cls=st.sampled_from(CONTROLLER_CLASSES),
    n_levels=st.sampled_from(LEVEL_COUNTS[1:]),  # a VF table needs two levels
    runs=st.lists(
        st.tuples(st.floats(0.02, 1.0), st.integers(1, 6)), min_size=1, max_size=4
    ),
)
@settings(max_examples=40, deadline=None)
def test_policy_rows_match_serial_decide_under_ragged_masks(cls, n_levels, runs):
    """Every live row of the stacked decide equals that run's serial
    decide on the same observation row; runs of a ragged stack finish
    after their own epoch counts and are masked off from then on."""
    n_cores = 4
    cfgs = [
        default_system(n_cores=n_cores, n_levels=n_levels, budget_fraction=frac)
        for frac, _ in runs
    ]
    lengths = np.array([n for _, n in runs])
    controllers = [cls(cfg) for cfg in cfgs]
    policy = build_batch_policy(controllers)
    assert isinstance(policy, BatchModelBased)
    kernel = EpochKernel(
        cfgs, [mixed_workload(n_cores, seed=r) for r in range(len(runs))],
        n_epochs=int(lengths.max()),
    )
    bobs = None
    for e in range(int(lengths.max())):
        active = lengths > e
        levels = policy.decide(bobs, active)
        for r in np.flatnonzero(active):
            row = None if bobs is None else bobs.row(r)
            np.testing.assert_array_equal(levels[r], controllers[r].decide(row))
        bobs = kernel.step(levels, active=active)
