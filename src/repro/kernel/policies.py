"""Batched controller policies: N runs' controllers advanced in lockstep.

Three shapes, selected by :func:`build_batch_policy`:

* :class:`BatchODRL` — all runs are stock :class:`ODRLController` instances
  with matching hyper-parameters: Q/visit tables gain a leading run axis,
  telemetry sanitization / reward / state encoding vectorize over runs, and
  the RNG-consuming action step plus the TD scatter run per run in the
  exact serial order (the RNG draw sequence per run is untouched).
* :class:`BatchModelBased` (alias :class:`BatchMaxBIPS`) — all runs are
  stock greedy-ascent, steepest-drop or DP-method MaxBIPS controllers of
  one class sharing estimator tables: the telemetry inversion vectorizes
  over runs and feeds the class's stacked solver.  Model-based decides
  dominate the paper grid's wall-clock, so this batching pays most.
* :class:`PerRunPolicy` — anything else (including watchdog-wrapped
  drivers): the kernel plant is still shared, but each run's serial
  controller consumes its own row view of the kernel observation.
  Bit-identical by construction, since the serial ``decide`` is the one
  executing.

Ragged stacks pass the ``active`` row mask of the kernel step through
``decide``: a finished run's controller is never invoked again — its RNG
streams, counters, and learner state freeze exactly where a standalone
run of its length would leave them — while the dead rows of the stacked
arrays keep advancing harmlessly (they are never read).

Every vectorized expression here replicates its serial counterpart's
operation order element for element (see ``docs/batch.md``); per-run
reductions are row-view sums with the serial pairwise order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.estimator import ModelBasedController
from repro.baselines.greedy import (
    GreedyAscentController,
    SteepestDropController,
    greedy_ascent_stack,
    steepest_drop_stack,
)
from repro.baselines.maxbips import MaxBIPSController, solve_dp_stack
from repro.contracts import check_q_table
from repro.core.budget import reallocate_budget
from repro.core.controller import ODRLController
from repro.kernel.epoch import KernelObservation, _row_active
from repro.sim.interface import Controller

__all__ = [
    "BatchCompatError",
    "BatchPolicy",
    "PerRunPolicy",
    "BatchODRL",
    "BatchModelBased",
    "BatchMaxBIPS",
    "build_batch_policy",
]


class BatchCompatError(ValueError):
    """A controller group cannot be driven by a specialized batch policy."""


class BatchPolicy(ABC):
    """Decides all runs' next VF levels from one :class:`KernelObservation`."""

    #: short tag for engine events / diagnostics
    kind: str = "batch"

    def __init__(self, controllers: Sequence[Controller]) -> None:
        if not controllers:
            raise ValueError("batch policy needs at least one controller")
        self.controllers: List[Controller] = list(controllers)
        self.n_runs = len(self.controllers)
        self.n_cores = self.controllers[0].n_cores
        self.n_levels = self.controllers[0].n_levels

    def reset(self) -> None:
        """Reset every run's controller state (start of the batch run)."""
        for ctrl in self.controllers:
            ctrl.reset()

    @abstractmethod
    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(n_runs, n_cores)`` integer VF levels for the next epoch.

        ``active`` is the ragged-stack row mask: rows with ``active[r]``
        false belong to finished runs and must not advance any per-run
        controller state (RNG draws, counters, learner tables); their
        output rows are unspecified — the simulate loop freezes them.
        """

    def degradation_extras(self, run: int) -> Optional[Dict[str, int]]:
        """Run ``run``'s degradation counters, mirroring the serial
        ``result.extras["degradation"]`` gate (present only when the
        controller carries an armed sanitizer).  Watchdog-wrapped drivers
        are unwrapped first, as the serial simulator does."""
        ctrl = self.controllers[run]
        inner = getattr(ctrl, "inner", ctrl)
        sanitizer = getattr(inner, "sanitizer", None)
        if sanitizer is not None and getattr(inner, "degradation", False):
            return {
                "rejected_samples": sanitizer.rejected_samples,
                "fallback_samples": sanitizer.fallback_samples,
                "agents_repaired": getattr(inner, "agents_repaired", 0),
            }
        return None


class PerRunPolicy(BatchPolicy):
    """Generic fallback: serial controllers deciding on kernel-row views.

    Each run's controller executes its own unmodified ``decide`` on a row
    view of the kernel observation, so any controller batches (plant-side
    speedup only) and equivalence to serial is by construction.
    """

    kind = "per-run"

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        # Zeros, not empty: finished runs' rows must still be valid level
        # indices (the simulator overwrites them with the frozen levels).
        out = np.zeros((self.n_runs, self.n_cores), dtype=int)
        for r, ctrl in enumerate(self.controllers):
            if not _row_active(active, r):
                continue
            out[r] = ctrl.decide(None if bobs is None else bobs.row(r))
        return out


class BatchODRL(BatchPolicy):
    """All runs' OD-RL controllers advanced by one vectorized decide.

    Construct via :func:`build_batch_policy`, which verifies that every
    controller is a stock :class:`ODRLController` with identical
    hyper-parameters (budgets and seeds may differ).  The per-run RNG
    streams, TD updates, counters and reallocation windows replicate the
    serial controller exactly — see the compat check for the full list of
    what must match.
    """

    kind = "od-rl"

    def __init__(self, controllers: Sequence[ODRLController]) -> None:
        super().__init__(controllers)
        c0 = controllers[0]
        self.cfg = c0.cfg
        self.encoder = c0.encoder
        self.reward_params = c0.reward_params
        self.action_mode = c0.action_mode
        self.realloc_period = c0.realloc_period
        self.degradation = c0.degradation
        self._budgets = [c.cfg.power_budget for c in controllers]
        self._deltas = c0._deltas
        self._freqs = c0._freqs
        self._instr_scale = c0._instr_scale
        self._floors = c0._floors
        self._caps = c0._caps
        agents0 = c0.agents
        self.gamma = agents0.gamma
        self.td_rule = agents0.td_rule
        self.epsilon = agents0.epsilon
        self.alpha = agents0.alpha
        self.n_actions = agents0.n_actions
        self._q_init = agents0._init
        self._agents_validate = agents0.validate
        self._agent_idx = np.arange(self.n_cores)
        self._san_policy = c0.sanitizer.policy
        self.reset()

    def reset(self) -> None:
        super().reset()
        n_runs, n_cores = self.n_runs, self.n_cores
        # Steal the freshly reset per-run learner state; from here on the
        # stacked arrays are the single source of truth.
        self.q = np.stack(
            [c.agents.q for c in self.controllers]  # type: ignore[union-attr]
        )
        self.visits = np.stack(
            [c.agents.visits for c in self.controllers]  # type: ignore[union-attr]
        )
        self.step_counts = [0] * n_runs
        self._rngs = [
            c.agents._rng for c in self.controllers  # type: ignore[union-attr]
        ]
        self.allocation = np.stack(
            [c.allocation for c in self.controllers]  # type: ignore[attr-defined]
        )
        self.guard = [0.0] * n_runs
        self._window_ipc = np.zeros((n_runs, n_cores))
        self._window_epochs = 0
        self._window_over = [0] * n_runs
        self.agents_repaired = [0] * n_runs
        self._prev_states: Optional[np.ndarray] = None
        self._prev_actions: Optional[np.ndarray] = None
        self._prev_trusted: Optional[np.ndarray] = None
        self._san_staleness = np.zeros((n_runs, n_cores), dtype=int)
        self._san_have_good = np.zeros((n_runs, n_cores), dtype=bool)
        self._san_last_power = np.zeros((n_runs, n_cores))
        self._san_last_instr = np.zeros((n_runs, n_cores))
        self._san_last_temp = np.full(
            (n_runs, n_cores), self._san_policy.fallback_temperature_k
        )
        self.rejected_samples = [0] * n_runs
        self.fallback_samples = [0] * n_runs

    def degradation_extras(self, run: int) -> Optional[Dict[str, int]]:
        if not self.degradation:
            return None
        return {
            "rejected_samples": self.rejected_samples[run],
            "fallback_samples": self.fallback_samples[run],
            "agents_repaired": self.agents_repaired[run],
        }

    def _sanitize(
        self,
        power: np.ndarray,
        instructions: np.ndarray,
        temperature: np.ndarray,
        active: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`TelemetrySanitizer.sanitize`: every operation is
        elementwise; the counter tallies are per-run row sums.  Finished
        runs' register rows keep advancing (never read again) but their
        reported counters freeze."""
        policy = self._san_policy
        valid = (
            np.isfinite(power)
            & np.isfinite(instructions)
            & np.isfinite(temperature)
            & (power > policy.power_floor_w)
            & (instructions >= 0.0)
            & (temperature >= policy.min_temperature_k)
        )
        for r in range(self.n_runs):
            if _row_active(active, r):
                self.rejected_samples[r] += int(np.sum(~valid[r]))
        self._san_last_power = np.where(valid, power, self._san_last_power)
        self._san_last_instr = np.where(valid, instructions, self._san_last_instr)
        self._san_last_temp = np.where(valid, temperature, self._san_last_temp)
        self._san_have_good |= valid
        self._san_staleness = np.where(valid, 0, self._san_staleness + 1)
        hold = (
            ~valid
            & self._san_have_good
            & (self._san_staleness <= policy.max_staleness_epochs)
        )
        fallback = ~valid & ~hold
        for r in range(self.n_runs):
            if _row_active(active, r):
                self.fallback_samples[r] += int(np.sum(fallback[r]))
        out_power = np.where(valid, power, self._san_last_power)
        out_instr = np.where(valid, instructions, self._san_last_instr)
        out_temp = np.where(valid, temperature, self._san_last_temp)
        out_power = np.where(fallback, self.allocation, out_power)
        out_instr = np.where(fallback, 0.0, out_instr)
        out_temp = np.where(fallback, policy.fallback_temperature_k, out_temp)
        return out_power, out_instr, out_temp, valid

    def _compute_rewards(
        self, instructions: np.ndarray, power: np.ndarray
    ) -> np.ndarray:
        params = self.reward_params
        throughput_norm = instructions / self._instr_scale
        overshoot = np.maximum(0.0, (power - self.allocation) / self.allocation)
        reward = throughput_norm - params.overshoot_weight * overshoot
        if params.energy_weight > 0:
            reward = reward - params.energy_weight * (power / self.allocation)
        if params.chip_overshoot_weight > 0:
            # The chip-level term is a per-run scalar; the serial path
            # subtracts it even when zero, so the batch does too.
            for r in range(self.n_runs):
                budget = self._budgets[r]
                if budget > 0:
                    chip_over = max(
                        0.0, (float(np.sum(power[r])) - budget) / budget
                    )
                    reward[r] = reward[r] - params.chip_overshoot_weight * chip_over
        return reward

    def _repair_nonfinite(self, active: Optional[np.ndarray]) -> np.ndarray:
        bad = ~np.isfinite(self.q).all(axis=(2, 3))
        if active is not None:
            # A finished run's learner is frozen: its tables are exactly
            # what a standalone run of its length left behind, so never
            # repair (or count repairs for) inactive rows.
            bad &= active[:, None]
        if bad.any():
            self.q[bad] = self._q_init
            self.visits[bad] = 0
            for r in range(self.n_runs):
                n_bad = int(np.sum(bad[r]))
                if n_bad:
                    self.agents_repaired[r] += n_bad
        return bad

    def _act(self, states: np.ndarray, active: Optional[np.ndarray]) -> np.ndarray:
        """Epsilon-greedy per run.  The three RNG draws per epoch (tie-break
        jitter, explore coin, random action) happen per run in the serial
        order, so each run's exploration stream is bit-identical.  Finished
        runs draw nothing — their streams stay frozen."""
        # Zeros, not empty: inactive rows must stay valid action indices
        # (they index _deltas below before the simulator freezes the row).
        actions = np.zeros((self.n_runs, self.n_cores), dtype=np.int64)
        for r in range(self.n_runs):
            if not _row_active(active, r):
                continue
            rng = self._rngs[r]
            qs = self.q[r, self._agent_idx, states[r]]
            jitter = rng.random(qs.shape) * 1e-12
            greedy_actions = np.argmax(qs + jitter, axis=1)
            eps = self.epsilon(self.step_counts[r])
            explore = rng.random(self.n_cores) < eps
            random_actions = rng.integers(self.n_actions, size=self.n_cores)
            actions[r] = np.where(explore, random_actions, greedy_actions)
        return actions

    def _update(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        next_actions: np.ndarray,
        masks: Optional[np.ndarray],
        active: Optional[np.ndarray],
    ) -> None:
        for r in range(self.n_runs):
            if not _row_active(active, r):
                continue
            q = self.q[r]
            if self.td_rule == "sarsa":
                bootstrap = q[self._agent_idx, next_states[r], next_actions[r]]
            else:
                bootstrap = np.max(q[self._agent_idx, next_states[r]], axis=1)
            idx = self._agent_idx if masks is None else self._agent_idx[masks[r]]
            if idx.size == 0:
                # Fully masked run: nothing learned, schedule clock frozen
                # (matches the serial early return).
                continue
            row_states = states[r][idx]
            row_actions = actions[r][idx]
            cell_visits = self.visits[r][idx, row_states, row_actions]
            a = self.alpha.value(cell_visits)
            target = rewards[r][idx] + self.gamma * bootstrap[idx]
            td = target - q[idx, row_states, row_actions]
            q[idx, row_states, row_actions] += a * td
            self.visits[r][idx, row_states, row_actions] += 1
            self.step_counts[r] += 1
            if self._agents_validate:
                check_q_table(
                    q[idx, row_states, row_actions], step=self.step_counts[r]
                )

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n_runs, n_cores = self.n_runs, self.n_cores
        if bobs is None:
            self._prev_actions = None
            return np.full((n_runs, n_cores), self.n_levels // 2, dtype=int)

        levels = bobs.levels
        if self.degradation:
            power, instructions, _temperature, trusted = self._sanitize(
                bobs.sensed_power,
                bobs.sensed_instructions,
                bobs.sensed_temperature,
                active,
            )
        else:
            power = bobs.sensed_power
            instructions = bobs.sensed_instructions
            trusted = np.ones((n_runs, n_cores), dtype=bool)
        freq = self._freqs[levels]
        cycles = freq * self.cfg.epoch_time
        ipc = instructions / np.maximum(cycles, 1.0)

        rewards = self._compute_rewards(instructions, power)

        self._window_ipc += ipc
        self._window_epochs += 1
        for r in range(n_runs):
            if not _row_active(active, r):
                continue
            if float(np.sum(power[r])) > self._budgets[r]:
                self._window_over[r] += 1
        # realloc_period is compat-equal across runs and the window counter
        # ticks every epoch for every run, so one shared scalar suffices
        # and all runs reallocate on the same epochs (as serial runs do —
        # a ragged stack's runs are prefixes of the shared epoch timeline,
        # so every active run sees the serial reallocation schedule).
        if self.realloc_period > 0 and self._window_epochs >= self.realloc_period:
            floors_total = float(np.sum(self._floors))
            for r in range(n_runs):
                if not _row_active(active, r):
                    continue
                over_rate = self._window_over[r] / self._window_epochs
                self.guard[r] = float(
                    np.clip(
                        self.guard[r]
                        + ODRLController.GUARD_GAIN
                        * (over_rate - ODRLController.GUARD_TARGET),
                        0.0,
                        ODRLController.GUARD_MAX,
                    )
                )
                distributable = (1.0 - self.guard[r]) * self._budgets[r]
                distributable = max(distributable, floors_total)
                scores = self._window_ipc[r] / self._window_epochs
                self.allocation[r] = reallocate_budget(
                    distributable, scores, self._floors, self._caps
                )
            self._window_ipc[:] = 0.0
            self._window_epochs = 0
            self._window_over = [0] * n_runs

        states = self.encoder.encode(power, self.allocation, ipc, levels)
        if self.degradation:
            repaired = self._repair_nonfinite(active)
        else:
            repaired = np.zeros((n_runs, n_cores), dtype=bool)
        actions = self._act(states, active)
        if self._prev_states is not None and self._prev_actions is not None:
            masks: Optional[np.ndarray] = None
            if self.degradation:
                prev_trusted = (
                    self._prev_trusted
                    if self._prev_trusted is not None
                    else np.ones((n_runs, n_cores), dtype=bool)
                )
                masks = trusted & prev_trusted & ~repaired
            self._update(
                self._prev_states,
                self._prev_actions,
                rewards,
                states,
                actions,
                masks,
                active,
            )
        self._prev_states = states
        self._prev_actions = actions
        self._prev_trusted = trusted
        if self.action_mode == "absolute":
            next_levels = actions
        else:
            next_levels = np.clip(
                levels + self._deltas[actions], 0, self.n_levels - 1
            )
        if repaired.any():
            next_levels = np.where(repaired, 0, next_levels)
        return next_levels


#: Batched model-based controller classes and their stacked solvers.
_STACKED_SOLVERS = {
    GreedyAscentController: greedy_ascent_stack,
    SteepestDropController: steepest_drop_stack,
    MaxBIPSController: solve_dp_stack,
}


class BatchModelBased(BatchPolicy):
    """All runs' model-based baselines decided by one stacked solver.

    One estimator inversion over the stack (:meth:`PowerPerfEstimator.
    predict_stack`) feeds the controller class's stacked solver; budgets
    may differ per run.  The policy is epoch-stateless, so ragged masking
    needs no gating — inactive rows compute unused (but valid) levels.
    """

    kind = "model-based"

    def __init__(self, controllers: Sequence[ModelBasedController]) -> None:
        super().__init__(controllers)
        c0 = controllers[0]
        self._estimator = c0._estimator
        extra = {"n_quanta": c0.n_quanta} if isinstance(c0, MaxBIPSController) else {}
        self._solve = partial(
            _STACKED_SOLVERS[type(c0)],
            budgets=np.array([c.cfg.power_budget for c in controllers]),
            **extra,
        )

    def decide(
        self,
        bobs: Optional[KernelObservation],
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if bobs is None:
            # Cold predictions are telemetry-free, hence run-independent;
            # tiled into real rows, not stride-0 broadcast views.
            pred = self._estimator.cold_predictions(self.n_cores)
            power, ips = (np.tile(a, (self.n_runs, 1, 1)) for a in (pred.power, pred.ips))
        else:
            power, ips = self._estimator.predict_stack(
                bobs.levels, bobs.sensed_instructions, bobs.sensed_power
            )
        return self._solve(power, ips)


#: The name ``repro.batch`` has always exported (the benchmark imports it).
BatchMaxBIPS = BatchModelBased


def _check_odrl_group(ctrls: List[ODRLController]) -> None:
    c0 = ctrls[0]
    for c in ctrls:
        if type(c) is not ODRLController:
            raise BatchCompatError(f"not a stock ODRLController: {type(c).__name__}")
        if c.thermal_limit is not None:
            raise BatchCompatError("thermal_limit is not batch-supported")
        if c.profiler is not None:
            raise BatchCompatError("profiled controllers do not batch")
        if getattr(c, "_pretrained", None) is not None:
            # BatchODRL.reset() restacks fresh learner state (zero step
            # counts, zero guard); a warm-started controller's restored
            # snapshot would be silently discarded.  Route to PerRunPolicy,
            # which runs the serial decide and preserves the warm start
            # bit-for-bit.
            raise BatchCompatError("pretrained (warm-start) controllers do not batch")
        if c.action_mode != c0.action_mode:
            raise BatchCompatError("action_mode differs across runs")
        if c.realloc_period != c0.realloc_period:
            raise BatchCompatError("realloc_period differs across runs")
        if c.degradation != c0.degradation:
            raise BatchCompatError("degradation flag differs across runs")
        if c.encoder != c0.encoder:
            raise BatchCompatError("state encoder differs across runs")
        if c.reward_params != c0.reward_params:
            raise BatchCompatError("reward params differ across runs")
        if c.sanitizer.policy != c0.sanitizer.policy:
            raise BatchCompatError("sanitizer policy differs across runs")
        a, a0 = c.agents, c0.agents
        if (
            a.gamma != a0.gamma
            or a.td_rule != a0.td_rule
            or a.n_states != a0.n_states
            or a.n_actions != a0.n_actions
            or a._init != a0._init
            or a.epsilon != a0.epsilon
            or a.alpha != a0.alpha
        ):
            raise BatchCompatError("agent hyper-parameters differ across runs")
        if not np.array_equal(c._floors, c0._floors) or not np.array_equal(
            c._caps, c0._caps
        ):
            raise BatchCompatError("power floors/caps differ across runs")


def _check_model_group(ctrls: List[ModelBasedController]) -> None:
    c0 = ctrls[0]
    for c in ctrls:
        if type(c) is not type(c0):
            raise BatchCompatError("controller classes differ across runs")
        if getattr(c, "method", "dp") != "dp":
            raise BatchCompatError("only the DP method batches")
        if getattr(c, "n_quanta", None) != getattr(c0, "n_quanta", None):
            raise BatchCompatError("n_quanta differs across runs")
        e, e0 = c._estimator, c0._estimator
        if not (
            np.array_equal(e._freqs, e0._freqs)
            and np.array_equal(e._volts, e0._volts)
            and np.array_equal(np.asarray(e._ceff), np.asarray(e0._ceff))
            and np.array_equal(np.asarray(e._base_cpi), np.asarray(e0._base_cpi))
            and np.array_equal(e._leak_per_level, e0._leak_per_level)
        ):
            raise BatchCompatError("estimator tables differ across runs")


def build_batch_policy(controllers: Sequence[Controller]) -> BatchPolicy:
    """Pick the batch policy for a controller group.

    Returns a specialized policy when every controller qualifies, else the
    generic :class:`PerRunPolicy` (which is always correct — and is how
    watchdog-wrapped drivers batch).  A compat failure is a routing
    decision, not an error — the fallback preserves bit-identity by
    running the serial controllers themselves.
    """
    ctrls = list(controllers)
    if not ctrls:
        raise ValueError("build_batch_policy needs at least one controller")
    try:
        if all(isinstance(c, ODRLController) for c in ctrls):
            odrl = [c for c in ctrls if isinstance(c, ODRLController)]
            _check_odrl_group(odrl)
            return BatchODRL(odrl)
        model = [c for c in ctrls if isinstance(c, ModelBasedController)]
        if len(model) == len(ctrls) and type(ctrls[0]) in _STACKED_SOLVERS:
            _check_model_group(model)
            return BatchModelBased(model)
    except BatchCompatError:
        return PerRunPolicy(ctrls)
    return PerRunPolicy(ctrls)
