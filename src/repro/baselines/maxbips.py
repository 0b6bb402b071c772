"""MaxBIPS: the centralized optimizing baseline (Isci et al., MICRO 2006).

MaxBIPS picks, each interval, the VF assignment that maximizes predicted
chip throughput subject to the predicted chip power fitting the budget.
Two solvers are provided:

* :func:`solve_exhaustive` — literal enumeration of all ``L**n``
  assignments.  Exact; usable only for unit-test-sized systems, and the
  reason MaxBIPS does not scale (the paper's claim C3 contrasts against
  exactly this combinatorial blow-up).
* :func:`solve_dp` — pseudo-polynomial knapsack dynamic program over
  quantized power, O(n · L · Q) time and O(n · Q) memory for Q power
  quanta.  This is the practical "optimized" variant; it is still two to
  three orders of magnitude more expensive per decision than OD-RL's O(n)
  table lookups at hundreds of cores.  :func:`solve_dp_stack` runs the
  same DP for a stack of runs at once (the batched backend's decide).

Both solvers maximize ``sum(ips)`` subject to ``sum(power) <= budget``.
The DP quantizes power *up* per (core, level) so its chosen assignment
never exceeds the budget in model terms (it may be slightly conservative).
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from repro.baselines.estimator import LevelPredictions, ModelBasedController
from repro.manycore.chip import EpochObservation
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap

__all__ = ["solve_exhaustive", "solve_dp", "solve_dp_stack", "MaxBIPSController"]

_EXHAUSTIVE_LIMIT = 2_000_000  # max assignments enumerated before refusing


def solve_exhaustive(pred: LevelPredictions, budget: float) -> np.ndarray:
    """Exact MaxBIPS by full enumeration.

    Raises
    ------
    ValueError
        If the assignment space exceeds the enumeration safety limit.
    """
    power, ips = pred.power, pred.ips
    n, n_levels = power.shape
    if n_levels**n > _EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"{n_levels}**{n} assignments exceed the exhaustive-search limit; "
            f"use solve_dp"
        )
    best_levels: Optional[Tuple[int, ...]] = None
    best_ips = -np.inf
    idx = np.arange(n)
    for assignment in itertools.product(range(n_levels), repeat=n):
        total_p = float(np.sum(power[idx, assignment]))
        if total_p > budget:
            continue
        total_ips = float(np.sum(ips[idx, assignment]))
        if total_ips > best_ips:
            best_ips = total_ips
            best_levels = assignment
    if best_levels is None:
        # Infeasible even at the bottom everywhere: return all-bottom, the
        # least-overshooting assignment (matches solve_dp's fallback).
        return np.zeros(n, dtype=int)
    return np.array(best_levels, dtype=int)


def solve_dp(
    pred: LevelPredictions, budget: float, n_quanta: int = 400
) -> np.ndarray:
    """MaxBIPS via knapsack dynamic programming over quantized power.

    Parameters
    ----------
    pred:
        Per-(core, level) power/throughput predictions.
    budget:
        Chip power budget, watts.
    n_quanta:
        Number of power quanta the budget is discretized into.  Larger is
        closer to exact and proportionally slower.

    Returns
    -------
    numpy.ndarray
        Level per core.  All-bottom if even that is infeasible.
    """
    if n_quanta < 2:
        raise ValueError(f"n_quanta must be >= 2, got {n_quanta}")
    power, ips = pred.power, pred.ips
    n, n_levels = power.shape
    quantum = budget / n_quanta
    # Ceil-quantize so the solution never exceeds the true budget.
    cost = np.minimum(np.ceil(power / quantum).astype(int), n_quanta + 1)
    if float(np.sum(power[:, 0])) > budget:
        return np.zeros(n, dtype=int)

    neg_inf = -np.inf
    # value[w] = best total ips using cores 0..i with total cost exactly <= w
    value = np.full(n_quanta + 1, neg_inf)
    value[0] = 0.0
    choice = np.zeros((n, n_quanta + 1), dtype=np.int8)
    for i in range(n):
        new_value = np.full(n_quanta + 1, neg_inf)
        new_choice = np.zeros(n_quanta + 1, dtype=np.int8)
        for lvl in range(n_levels):
            c = int(cost[i, lvl])
            if c > n_quanta:
                continue
            gain = ips[i, lvl]
            # shifted[w] = value[w - c] + gain
            shifted = np.full(n_quanta + 1, neg_inf)
            shifted[c:] = value[: n_quanta + 1 - c] + gain
            better = shifted > new_value
            new_value = np.where(better, shifted, new_value)
            new_choice = np.where(better, np.int8(lvl), new_choice)
        value = new_value
        choice[i] = new_choice
    # value[w] holds the best throughput at total quantized cost exactly w;
    # "<= budget" is realized by taking the best bucket overall.
    w_best = int(np.argmax(value))
    if not np.isfinite(value[w_best]):
        return np.zeros(n, dtype=int)
    levels = np.zeros(n, dtype=int)
    w = w_best
    for i in range(n - 1, -1, -1):
        lvl = int(choice[i, w])
        levels[i] = lvl
        w -= int(cost[i, lvl])
    return levels


def solve_dp_stack(
    power: np.ndarray, ips: np.ndarray, budgets: np.ndarray, n_quanta: int
) -> np.ndarray:
    """:func:`solve_dp` for a stack of runs, bit for bit: ``(n_runs,
    n_cores)`` levels for ``(n_runs, n_cores, n_levels)`` predicted
    ``power`` (watts) and ``ips`` under per-run ``budgets`` (watts).

    Value tables sit right of ``-inf`` padding, so the level-``c`` shift
    ``value[w - c]`` is a row of their sliding windows; the kept level is
    the first attaining the maximum, as in the serial strict-``>`` loop.
    """
    n_runs, n_cores, n_levels = power.shape
    width = n_quanta + 1
    quantum = budgets / n_quanta
    cost = np.minimum(np.ceil(power / quantum[:, None, None]).astype(int), width)
    padded = np.full((n_runs, 2 * width), -np.inf)
    padded[:, width] = 0.0
    value = padded[:, width:]
    windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)
    rows = np.arange(n_runs)[None, :]
    # The largest n_levels - l among levels attaining the max marks the
    # first of them (a first-occurrence argmax, without argmax's cost).
    rank = (n_levels - np.arange(n_levels, dtype=np.int8))[:, None, None]
    choice = np.zeros((n_runs, n_cores, width), dtype=np.int8)
    for i in range(n_cores):
        shifted = windows[rows, width - cost[:, i].T]  # (level, run, weight)
        shifted += ips[:, i].T[:, :, None]
        np.max(shifted, axis=0, out=value)
        first = np.max((shifted == value).view(np.int8) * rank, axis=0)
        choice[:, i] = n_levels - first

    out = np.zeros((n_runs, n_cores), dtype=int)
    for r in range(n_runs):
        w = int(np.argmax(value[r]))
        if float(np.sum(power[r, :, 0])) > budgets[r] or not np.isfinite(value[r, w]):
            continue  # all-bottom, as the serial early returns
        for i in range(n_cores - 1, -1, -1):
            lvl = int(choice[r, i, w])
            out[r, i] = lvl
            w -= int(cost[r, i, lvl])
    return out


class MaxBIPSController(ModelBasedController):
    """Per-epoch MaxBIPS optimization on model predictions.

    Parameters
    ----------
    cfg:
        System under control.
    method:
        ``"dp"`` (default) or ``"exhaustive"``.
    n_quanta:
        Power quantization for the DP solver.  ``None`` (default) picks
        ``max(200, 8 * n_cores)`` so the power *quantum stays a fixed
        fraction of one core's draw* as the chip grows — without this the
        DP's accuracy collapses at hundreds of cores.  The consequence is
        O(n²) decision cost for fixed relative accuracy, which is exactly
        the scaling wall claim C3 measures against.
    """

    name = "maxbips"

    def __init__(
        self,
        cfg: SystemConfig,
        method: str = "dp",
        n_quanta: int | None = None,
        hetero: HeterogeneousMap | None = None,
    ) -> None:
        super().__init__(cfg, hetero=hetero)
        if method not in ("dp", "exhaustive"):
            raise ValueError(f"method must be 'dp' or 'exhaustive', got {method!r}")
        self.method = method
        self.n_quanta = (
            max(200, 8 * cfg.n_cores) if n_quanta is None else int(n_quanta)
        )
        if self.n_quanta < 2:
            raise ValueError(f"n_quanta must be >= 2, got {self.n_quanta}")

    def decide(self, obs: Optional[EpochObservation]) -> np.ndarray:
        pred = self.predictions(obs)
        if self.method == "exhaustive":
            return solve_exhaustive(pred, self.cfg.power_budget)
        return solve_dp(pred, self.cfg.power_budget, self.n_quanta)
