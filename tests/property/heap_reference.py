"""Reference heap scans for the greedy model-based baselines.

These are the original per-run ``heapq`` passes of
:mod:`repro.baselines.greedy`, kept verbatim (test-only) as the referee
for the stacked sort-and-scan solvers that replaced them: the
differential property test in ``test_property_stacked_solvers.py``
checks the stacked solvers against them bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.baselines.estimator import LevelPredictions

__all__ = ["_greedy_ascent", "_steepest_drop"]


def _greedy_ascent(pred: LevelPredictions, budget: float) -> np.ndarray:
    """Bottom-up marginal-utility allocation.  Shared by controllers/tests."""
    power, ips = pred.power, pred.ips
    n, n_levels = power.shape
    levels = np.zeros(n, dtype=int)
    total = float(np.sum(power[:, 0]))
    heap = []
    for i in range(n):
        if n_levels > 1:
            dp = power[i, 1] - power[i, 0]
            dips = ips[i, 1] - ips[i, 0]
            heap.append((-dips / max(dp, 1e-12), i, 1))
    heapq.heapify(heap)
    while heap:
        _, i, lvl = heapq.heappop(heap)
        if levels[i] != lvl - 1:
            continue  # stale entry
        dp = power[i, lvl] - power[i, lvl - 1]
        if total + dp > budget:
            continue  # this upgrade does not fit; others may
        levels[i] = lvl
        total += dp
        if lvl + 1 < n_levels:
            dp_next = power[i, lvl + 1] - power[i, lvl]
            dips_next = ips[i, lvl + 1] - ips[i, lvl]
            heapq.heappush(heap, (-dips_next / max(dp_next, 1e-12), i, lvl + 1))
    return levels


def _steepest_drop(pred: LevelPredictions, budget: float) -> np.ndarray:
    """Top-down power shedding.  Shared by controllers/tests."""
    power, ips = pred.power, pred.ips
    n, n_levels = power.shape
    levels = np.full(n, n_levels - 1, dtype=int)
    total = float(np.sum(power[:, -1]))
    heap = []

    def push(i: int) -> None:
        lvl = levels[i]
        if lvl == 0:
            return
        dp = power[i, lvl] - power[i, lvl - 1]
        dips = ips[i, lvl] - ips[i, lvl - 1]
        # Most power shed per throughput lost first -> smallest dips/dp.
        heap.append((dips / max(dp, 1e-12), i, lvl))

    for i in range(n):
        push(i)
    heapq.heapify(heap)
    while total > budget and heap:
        _, i, lvl = heapq.heappop(heap)
        if levels[i] != lvl:
            continue  # stale entry
        levels[i] = lvl - 1
        total -= power[i, lvl] - power[i, lvl - 1]
        if levels[i] > 0:
            dp = power[i, levels[i]] - power[i, levels[i] - 1]
            dips = ips[i, levels[i]] - ips[i, levels[i] - 1]
            heapq.heappush(heap, (dips / max(dp, 1e-12), i, levels[i]))
    return levels
