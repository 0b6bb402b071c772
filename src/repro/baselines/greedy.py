"""Greedy model-based allocation baselines.

Two classic heuristics from the power-capping literature, both driven by
the on-line model of :class:`~repro.baselines.estimator.PowerPerfEstimator`:

* :class:`GreedyAscentController` — start every core at the bottom level;
  repeatedly grant the single level upgrade with the best predicted
  marginal throughput per watt, while the predicted chip power fits the
  budget.  (The "maximize-then-swap"/marginal-utility family.)
* :class:`SteepestDropController` — start every core at the top; while the
  predicted chip power exceeds the budget, take the single downgrade that
  sheds the most power per unit of predicted throughput lost.  (The
  steepest-drop heuristic of Winter et al.)

Both are the classic heap-driven passes, O(n·L log n) per epoch, solved
for a stack of runs at once: one stable sort of every level step on the
running maximum of its heap key along its core's chain reproduces the
heap's pop order (``docs/batch.md``).  Their weakness versus OD-RL is the
model itself — the activity/leakage inversion drifts with die temperature,
so "fits the budget" in the model can overshoot in reality, every epoch,
systematically.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.estimator import LevelPredictions, ModelBasedController
from repro.manycore.chip import EpochObservation

__all__ = [
    "GreedyAscentController",
    "SteepestDropController",
    "greedy_ascent_stack",
    "steepest_drop_stack",
]


def _step_order(key: np.ndarray) -> np.ndarray:
    """Per run, flat ``core * n_steps + step`` indices of the ``(n_runs,
    n_cores, n_steps)`` heap ``key``s in pop order: by the running max of
    the key along each core's chain, ties to the lower core, then step."""
    chained = np.maximum.accumulate(key, axis=-1)
    return np.argsort(chained.reshape(key.shape[0], -1), axis=1, kind="stable")


def greedy_ascent_stack(
    power: np.ndarray, ips: np.ndarray, budgets: Sequence[float]
) -> np.ndarray:
    """Bottom-up marginal-utility allocation: ``(n_runs, n_cores)``
    levels for ``(n_runs, n_cores, n_levels)`` predicted ``power`` (watts)
    and ``ips`` under per-run ``budgets`` (watts).

    Upgrades are scanned in heap order and granted first-fit in plain
    float arithmetic; a core whose next upgrade does not fit is done.
    """
    n_runs, n_cores, n_levels = power.shape
    dp = power[..., 1:] - power[..., :-1]
    dips = ips[..., 1:] - ips[..., :-1]
    order = _step_order(-dips / np.maximum(dp, 1e-12))
    cores = (order // max(n_levels - 1, 1)).tolist()
    steps = np.take_along_axis(dp.reshape(n_runs, -1), order, axis=1).tolist()
    out = np.zeros((n_runs, n_cores), dtype=int)
    for r in range(n_runs):
        total, budget = float(np.sum(power[r, :, 0])), float(budgets[r])
        levels, blocked = [0] * n_cores, [False] * n_cores
        for i, step in zip(cores[r], steps[r]):
            if blocked[i]:
                continue
            if total + step > budget:
                blocked[i] = True  # this upgrade does not fit; others may
                continue
            levels[i] += 1
            total += step
        out[r] = levels
    return out


def steepest_drop_stack(
    power: np.ndarray, ips: np.ndarray, budgets: Sequence[float]
) -> np.ndarray:
    """Top-down power shedding: ``(n_runs, n_cores)`` levels for
    ``(n_runs, n_cores, n_levels)`` predicted ``power`` (watts) and
    ``ips`` under per-run ``budgets`` (watts).

    Downgrades are taken in heap order until the running total, shed by
    sequential subtraction from the all-top power, fits the budget.
    """
    n_runs, n_cores, n_levels = power.shape
    # Each core's chain runs top-down: step s lowers level L-1-s by one.
    dp = (power[..., 1:] - power[..., :-1])[..., ::-1]
    dips = (ips[..., 1:] - ips[..., :-1])[..., ::-1]
    # Most power shed per throughput lost first -> smallest dips/dp.
    order = _step_order(dips / np.maximum(dp, 1e-12))
    shed = np.take_along_axis(dp.reshape(n_runs, -1), order, axis=1)
    top = np.array([[float(np.sum(power[r, :, -1]))] for r in range(n_runs)])
    totals = np.subtract.accumulate(np.concatenate([top, shed], axis=1), axis=1)
    # Shed while over budget: steps before the first total that fits.
    over = totals[:, :-1] > np.asarray(budgets, dtype=float)[:, None]
    n_taken = np.logical_and.accumulate(over, axis=1).sum(axis=1)
    taken = np.argsort(order, axis=1) < n_taken[:, None]  # by pop position
    return (n_levels - 1) - taken.reshape(n_runs, n_cores, -1).sum(axis=-1)


def _greedy_ascent(pred: LevelPredictions, budget: float) -> np.ndarray:
    """One-row :func:`greedy_ascent_stack`.  Shared by controllers/tests."""
    return greedy_ascent_stack(pred.power[None], pred.ips[None], [budget])[0]


def _steepest_drop(pred: LevelPredictions, budget: float) -> np.ndarray:
    """One-row :func:`steepest_drop_stack`.  Shared by controllers/tests."""
    return steepest_drop_stack(pred.power[None], pred.ips[None], [budget])[0]


class GreedyAscentController(ModelBasedController):
    """Per-epoch bottom-up marginal-utility allocation on model predictions."""

    name = "greedy-ascent"

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        return _greedy_ascent(self.predictions(obs), self.cfg.power_budget)


class SteepestDropController(ModelBasedController):
    """Per-epoch top-down steepest-drop power shedding on model predictions."""

    name = "steepest-drop"

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        return _steepest_drop(self.predictions(obs), self.cfg.power_budget)
