"""Closed-loop simulation driver.

:func:`simulate_stack` is the one epoch loop: it drives an
:class:`~repro.kernel.epoch.EpochKernel` stack of N runs with one
:class:`~repro.kernel.policies.BatchPolicy` and returns one
:class:`~repro.sim.results.SimulationResult` per row.
:func:`simulate` — a :class:`~repro.manycore.chip.ManyCoreChip` wired to
a :class:`~repro.sim.interface.Controller` — is its one-row call through
:class:`~repro.kernel.policies.PerRunPolicy`, and the batched backend
(:func:`repro.batch.simulate_batch`) its N-row call.  Controller decision
latency is measured with ``time.perf_counter`` around the ``decide`` call
only — that wall time is itself an evaluation output (the paper's
scalability claim C3); a stack's rows share one measurement.

Observability (:mod:`repro.obs`) threads through here per row: pass a
recorder to stream typed events (run manifest, per-epoch records,
fault/sanitizer/watchdog incidents, checkpoint saves/restores) and
``profile`` to collect the per-phase timing breakdown into
``result.extras["timing"]``.  Both are strictly write-only: the simulated
trajectory is bit-identical with observability on or off, which the
golden-trace tests enforce.  Incident events are produced by *polling*
the subsystems' cumulative counters between epochs — the fault injector,
sanitizer and watchdog never learn that a recorder exists.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.faults.campaign import FaultCampaign
    from repro.faults.injector import FaultInjector
    from repro.kernel.policies import BatchPolicy

import numpy as np

from repro.contracts import (
    check_observation_sane,
    check_power_samples,
    check_time_monotone,
    validation_enabled,
)
from repro.kernel.epoch import EpochKernel, KernelObservation
from repro.manycore.chip import ManyCoreChip
from repro.manycore.config import SystemConfig
from repro.manycore.hetero import HeterogeneousMap
from repro.manycore.memory import MemorySystem
from repro.manycore.sensors import SensorSuite
from repro.manycore.variation import CoreVariation
from repro.obs import NULL_RECORDER, PhaseProfiler, Recorder, SCHEMA_VERSION
from repro.sim.interface import Controller
from repro.sim.results import SimulationResult
from repro.workloads.phases import Workload

__all__ = ["simulate", "simulate_stack", "run_controller"]

#: watchdog counter attribute -> emitted incident, polled between epochs
_WATCHDOG_INCIDENTS = (
    ("recoveries", "recovery"),
    ("resets", "reset"),
    ("crashes", "crash"),
)


def simulate(
    chip: ManyCoreChip,
    controller: Controller,
    n_epochs: int,
    record_per_core: bool = False,
    reset: bool = True,
    validate: Optional[bool] = None,
    watchdog: bool = False,
    checkpoint_period: int = 0,
    max_strikes: int = 3,
    recorder: Optional[Recorder] = None,
    profile: bool = False,
    harvest: bool = False,
) -> SimulationResult:
    """Run the closed control loop for ``n_epochs``.

    Parameters
    ----------
    chip:
        The plant; its config must match the controller's.
    controller:
        The policy under test.
    n_epochs:
        Number of control epochs to simulate.
    record_per_core:
        Also record per-core power and level series (memory:
        ``2 * E * n_cores`` doubles).
    reset:
        Reset both plant and controller first.  Pass ``False`` to continue
        a run (e.g. to measure post-convergence behaviour separately).
    validate:
        Arm the runtime invariant contracts (see :mod:`repro.contracts`)
        for this run, overriding the ``REPRO_VALIDATE`` environment
        variable; also forwarded to the chip's per-epoch checks.  ``None``
        (default) defers to the environment.
    watchdog:
        Wrap the controller in a
        :class:`~repro.faults.watchdog.WatchdogController` before running:
        controller exceptions become recorded recoveries with a fallback
        action, and any :class:`~repro.faults.campaign.ControllerCrash`
        events in the chip's fault campaign are simulated (crash/restart
        with checkpoint recovery).  Watchdog counters land in
        ``result.extras["watchdog"]``.
    checkpoint_period:
        With ``watchdog``, checkpoint the controller every this many
        epochs (``0`` disables; crashes then restart cold).
    max_strikes:
        With ``watchdog``, consecutive decide failures tolerated before
        the controller is reset and restored from the last checkpoint.
    recorder:
        Event sink for the structured trace (see :mod:`repro.obs`);
        ``None`` uses the zero-overhead null recorder.  Wall-clock fields
        live only in trace events — the deterministic result series are
        bit-identical with any recorder attached.
    profile:
        Collect the per-phase timing breakdown
        (decide / plant / sensor / contracts / sanitizer / watchdog) into
        ``result.extras["timing"]`` and, with a recorder, into each epoch
        event.  Pure wall-clock measurement; never feeds back into the
        simulation.
    harvest:
        With a recorder, also emit one ``transition`` event per TD update
        the controller performs — the raw material of offline-RL replay
        datasets (see :mod:`repro.offline`).  The controller must expose
        a ``last_update`` attribute (:class:`~repro.core.controller.
        ODRLController` does); requesting harvest from one that does not
        is a ``ValueError``, not a silently empty dataset.  Off by
        default so ordinary traces stay byte-stable and inside the
        tracing overhead budget.

    Returns
    -------
    SimulationResult
    """
    if n_epochs <= 0:
        raise ValueError(f"n_epochs must be positive, got {n_epochs}")
    if chip.cfg.n_cores != controller.cfg.n_cores:
        raise ValueError(
            f"chip has {chip.cfg.n_cores} cores but controller was built "
            f"for {controller.cfg.n_cores}"
        )
    if watchdog:
        controller = watchdog_driver(
            controller, chip.faults, max_strikes, checkpoint_period
        )
    if reset:
        chip.reset()
        controller.reset()
    # Imported here: the batch policies pull in the controller layer,
    # which imports this package, so a module-level import would cycle.
    from repro.kernel.policies import PerRunPolicy

    # PerRunPolicy runs the controller's own serial ``decide`` on the row
    # view, so learner state stays live on ``controller`` (continuation
    # with ``reset=False``, harvest, policy export).
    (result,) = simulate_stack(
        chip._kernel,
        PerRunPolicy([controller]),
        [n_epochs],
        recorders=[recorder],
        record_per_core=record_per_core,
        validate=validate,
        profile=[profile],
        harvest=harvest,
    )
    return result


def watchdog_driver(
    controller: Controller,
    injector: Optional["FaultInjector"],
    max_strikes: int,
    checkpoint_period: int,
) -> Controller:
    """``controller`` wrapped in a
    :class:`~repro.faults.watchdog.WatchdogController` that simulates the
    crash schedule of its run's fault campaign, tolerating
    ``max_strikes`` consecutive decide failures and checkpointing every
    ``checkpoint_period`` epochs (``0`` disables)."""
    # Imported here: repro.faults.watchdog depends on this package's
    # Controller interface, so a module-level import would cycle.
    from repro.faults.watchdog import WatchdogController

    return WatchdogController(
        controller,
        max_strikes=max_strikes,
        crash_epochs=injector.campaign.crash_epochs if injector is not None else (),
        checkpoint_period=checkpoint_period,
    )


def simulate_stack(
    kernel: EpochKernel,
    policy: BatchPolicy,
    n_epochs: Sequence[int],
    recorders: Optional[Sequence[Optional[Recorder]]] = None,
    record_per_core: bool = False,
    validate: Optional[bool] = None,
    profile: Optional[Sequence[bool]] = None,
    harvest: bool = False,
) -> List[SimulationResult]:
    """Run the closed control loop over every row of a kernel stack.

    ``kernel`` starts in its current state (callers reset it) and
    ``policy.controllers[r]`` is row ``r``'s driver.  ``n_epochs`` holds
    per-row epoch counts: a *ragged* stack runs to the longest, masking
    finished rows via the kernel's ``active`` mask with their levels
    frozen, so each row sees exactly the operation sequence of a
    standalone run of its own length.  ``recorders`` gives optional
    per-row event sinks: each recording row gets its own ``run_start``,
    ``epoch``/``transition``/incident events for its own epochs, and a
    ``run_end`` at its own epoch count.  ``profile`` holds optional
    per-row flags: one :class:`~repro.obs.PhaseProfiler` times the whole
    stack, and every profiled row carries that shared breakdown in
    ``extras["timing"]``, just as ``decision_time`` is the stack's shared
    decide wall time.  ``record_per_core``, ``validate`` and ``harvest``
    are as in :func:`simulate` (``harvest`` needs a live learner per row,
    i.e. :class:`PerRunPolicy`).  Returns one result per row, in order.
    """
    n_runs, n_cores = kernel.n_runs, kernel.n_cores
    epochs = np.array(n_epochs, dtype=int)
    max_epochs = int(epochs.max())
    ragged = bool((epochs != max_epochs).any())
    drivers = policy.controllers
    recs: List[Recorder] = [
        rec if rec is not None else NULL_RECORDER
        for rec in (recorders if recorders is not None else [None] * n_runs)
    ]
    profiled = list(profile) if profile is not None else [False] * n_runs
    if harvest:
        for driver in drivers:
            inner = getattr(driver, "inner", driver)
            if not hasattr(inner, "last_update"):
                raise ValueError(
                    "harvest=True requires a controller exposing last_update "
                    f"(an RL learner); {type(inner).__name__} does not"
                )
    validating = validation_enabled(validate)
    if validate is not None:
        kernel.validate = validate
    profiler = PhaseProfiler() if any(profiled) else None

    chip_power = np.empty((max_epochs, n_runs))
    chip_instructions = np.empty((max_epochs, n_runs))
    max_temperature = np.empty((max_epochs, n_runs))
    decision_time = np.empty((max_epochs, n_runs))
    core_power = np.empty((max_epochs, n_runs, n_cores)) if record_per_core else None
    core_levels = (
        np.empty((max_epochs, n_runs, n_cores), dtype=int)
        if record_per_core
        else None
    )
    core_instructions = (
        np.empty((max_epochs, n_runs, n_cores)) if record_per_core else None
    )

    series = {
        "chip_power": chip_power,
        "chip_instructions": chip_instructions,
        "max_temperature": max_temperature,
        "decision_time": decision_time,
    }
    rows = [
        _RowTrace(kernel, policy, r, recs[r], harvest, profiled[r])
        for r in range(n_runs)
        if recs[r].enabled
    ]
    for row in rows:
        row.start(int(epochs[row.run]))

    if profiler is not None:
        # Duck-typed attachment: the kernel times its sensor reads, each
        # driver its sanitizer pass, the watchdog its wrapper overhead —
        # each only if it carries a ``profiler`` attribute.
        _attach_profiler(kernel, drivers, profiler)
    try:
        obs: Optional[KernelObservation] = None
        last_time_s = float("-inf")
        for e in range(max_epochs):
            active = epochs > e if ragged else None
            t0 = time.perf_counter()
            levels = policy.decide(obs, active)
            t1 = time.perf_counter()
            # One decide advances all rows; the shared wall time is each
            # row's decision_time entry (wall clock, outside trace_equal).
            decision_time[e, :] = t1 - t0
            if active is not None:
                # Finished rows hold their last level: no transition stall, no
                # actuator command.  np.where (not in-place assignment) because
                # a policy may return an array it also keeps as learner state.
                levels = np.where(active[:, None], levels, kernel.levels)
            obs = kernel.step(levels, active=active)
            t2 = time.perf_counter() if profiler is not None else 0.0
            if validating:
                for r in range(n_runs):
                    if active is None or active[r]:
                        check_power_samples(obs.power[r], epoch=e)
                check_time_monotone(last_time_s, obs.time, epoch=e)
                for r in range(n_runs):
                    if active is None or active[r]:
                        check_observation_sane(
                            obs.sensed_power[r],
                            obs.sensed_instructions[r],
                            obs.sensed_temperature[r],
                            obs.levels[r],
                            kernel.n_levels,
                            epoch=e,
                        )
                last_time_s = obs.time
            # Recording is unmasked — finished rows record dead (but finite)
            # state that the per-run slicing below never reads.
            for r in range(n_runs):
                chip_power[e, r] = obs.chip_power(r)
                chip_instructions[e, r] = obs.chip_instructions(r)
                max_temperature[e, r] = float(np.max(obs.temperature[r]))
            if core_power is not None:
                assert core_levels is not None and core_instructions is not None
                core_power[e] = obs.power
                core_levels[e] = obs.levels
                core_instructions[e] = obs.instructions

            phases: Optional[Dict[str, float]] = None
            if profiler is not None:
                t3 = time.perf_counter()
                profiler.add("decide", t1 - t0)
                profiler.add("plant", t2 - t1)
                profiler.add("contracts", t3 - t2)
                phases = profiler.end_epoch()
            for row in rows:
                if active is None or active[row.run]:
                    row.epoch(e, series, phases)
    finally:
        if profiler is not None:
            _attach_profiler(kernel, drivers, None)

    timing = profiler.breakdown().as_dict() if profiler is not None else None
    results: List[SimulationResult] = []
    for r in range(n_runs):
        n_e = int(epochs[r])
        extras = _row_extras(kernel, policy, r)
        if timing is not None and profiled[r]:
            extras["timing"] = timing
        results.append(
            SimulationResult(
                cfg=kernel.cfgs[r],
                controller_name=drivers[r].name,
                workload_name=kernel.workloads[r].name,
                chip_power=chip_power[:n_e, r].copy(),
                chip_instructions=chip_instructions[:n_e, r].copy(),
                max_temperature=max_temperature[:n_e, r].copy(),
                decision_time=decision_time[:n_e, r].copy(),
                core_power=_row_slice(core_power, r, n_e),
                core_levels=_row_slice(core_levels, r, n_e),
                core_instructions=_row_slice(core_instructions, r, n_e),
                extras=extras,
            )
        )
    for row in rows:
        row.end(results[row.run])
    return results


def _row_slice(
    series: Optional[np.ndarray], run: int, n_epochs: int
) -> Optional[np.ndarray]:
    """Row ``run``'s own epochs of an optional stacked per-core series."""
    return None if series is None else series[:n_epochs, run].copy()


def _attach_profiler(
    kernel: EpochKernel,
    drivers: Sequence[Controller],
    profiler: Optional[PhaseProfiler],
) -> None:
    """Attach (or, with ``None``, detach) ``profiler`` to the kernel and
    every driver, unwrapping watchdog wrappers to their inner policy."""
    kernel.profiler = profiler
    for driver in drivers:
        driver.profiler = profiler  # type: ignore[attr-defined]
        inner = getattr(driver, "inner", driver)
        if inner is not driver:
            inner.profiler = profiler


def _row_extras(kernel: EpochKernel, policy: BatchPolicy, run: int) -> dict:
    """Fault-injection, watchdog and degradation counters of one row for
    ``result.extras``.

    Duck-typed so memoryless baselines (no sanitizer, no watchdog wrapper)
    contribute nothing; keys appear only when the matching machinery ran.
    """
    extras: dict = {}
    injector = kernel.faults[run]
    if injector is not None and injector.campaign.n_events > 0:
        extras["faults"] = {"n_events": injector.campaign.n_events, **injector.counts}
    driver = policy.controllers[run]
    stats = getattr(driver, "stats", None)
    if stats is not None and getattr(driver, "inner", driver) is not driver:
        extras["watchdog"] = stats
    degradation = policy.degradation_extras(run)
    if degradation is not None:
        extras["degradation"] = degradation
    return extras


class _RowTrace:
    """One recording row's event stream: manifest, epochs, incidents, end.

    Incident events are produced by polling cumulative counters — the
    row's fault injector, its degradation counters (read through
    :meth:`BatchPolicy.degradation_extras`, the same place
    ``result.extras`` reads them), and its watchdog wrapper's recovery/
    checkpoint counters — and emitting one event per counter that moved
    during the epoch.  Polling keeps the subsystems recorder-free: they
    cannot behave differently under observation because they never see
    the recorder.
    """

    def __init__(
        self,
        kernel: EpochKernel,
        policy: BatchPolicy,
        run: int,
        rec: Recorder,
        harvest: bool,
        profiled: bool,
    ) -> None:
        self.run = run
        self._kernel = kernel
        self._policy = policy
        self._rec = rec
        self._harvest = harvest
        self._profiled = profiled
        self._driver = policy.controllers[run]
        self._inner = getattr(self._driver, "inner", self._driver)
        self._injector = kernel.faults[run]
        self._watchdog = self._driver if self._inner is not self._driver else None
        self._fault_prev: Dict[str, int] = (
            dict(self._injector.counts) if self._injector is not None else {}
        )
        self._san_prev = self._sanitizer_counts()
        self._wd_prev = self._watchdog_counts()

    def start(self, n_epochs: int) -> None:
        """Emit the ``run_start`` manifest: everything needed to identify
        the run.  Under harvest the manifest also carries the learner's
        state/action geometry (events are open records), so replay
        ingestion can size its tables from the trace alone."""
        # Imported lazily: the cache module lives in repro.parallel, which
        # imports this module's package; deferring avoids an import cycle at
        # module load while reusing the one canonical code-version salt.
        from repro.parallel.cache import CACHE_SALT

        cfg = self._kernel.cfgs[self.run]
        seed = getattr(self._inner, "_seed", None)
        manifest: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "controller": self._driver.name,
            "workload": self._kernel.workloads[self.run].name,
            "n_cores": cfg.n_cores,
            "n_epochs": n_epochs,
            "code_salt": CACHE_SALT,
            "power_budget": cfg.power_budget,
            "epoch_time": cfg.epoch_time,
            "seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
            "watchdog": self._watchdog is not None,
        }
        if self._harvest:
            agents = getattr(self._inner, "agents")
            manifest["harvest"] = True
            manifest["rl_n_states"] = int(agents.n_states)
            manifest["rl_n_actions"] = int(agents.n_actions)
            manifest["rl_gamma"] = float(agents.gamma)
            manifest["rl_action_mode"] = str(getattr(self._inner, "action_mode", ""))
        self._rec.emit("run_start", **manifest)

    def epoch(
        self,
        e: int,
        series: Dict[str, np.ndarray],
        phases: Optional[Dict[str, float]],
    ) -> None:
        """Emit the row's ``epoch`` event (its entries of the stacked
        ``(epoch, run)`` series), harvest ``transition`` and incidents."""
        rec = self._rec
        fields: Dict[str, object] = {"epoch": e}
        for name, values in series.items():
            fields[name] = float(values[e, self.run])
        if phases is not None and self._profiled:
            fields["phases"] = phases
        rec.emit("epoch", **fields)
        if self._harvest:
            update = getattr(self._inner, "last_update", None)
            if update is not None:
                # .tolist() up front: native ints/floats/bools keep the
                # JSON encode off the slow default= fallback, and floats
                # round-trip bit-exactly through repr.
                rec.emit(
                    "transition",
                    epoch=e,
                    states=update["states"].tolist(),
                    actions=update["actions"].tolist(),
                    rewards=update["rewards"].tolist(),
                    next_states=update["next_states"].tolist(),
                    next_actions=update["next_actions"].tolist(),
                    mask=update["mask"].tolist(),
                )
        self._poll(e)

    def end(self, result: SimulationResult) -> None:
        """Emit ``run_end`` with the row's totals (and timing, if profiled)."""
        end_fields: Dict[str, object] = {
            "n_epochs": len(result.chip_power),
            "total_energy_j": float(self._kernel.total_energy[self.run]),
            "total_instructions": float(self._kernel.total_instructions[self.run]),
        }
        if "timing" in result.extras:
            end_fields["timing"] = result.extras["timing"]
        self._rec.emit("run_end", **end_fields)

    def _sanitizer_counts(self) -> Tuple[int, int]:
        degradation = self._policy.degradation_extras(self.run)
        if degradation is None:
            return (0, 0)
        return (degradation["rejected_samples"], degradation["fallback_samples"])

    def _watchdog_counts(self) -> Dict[str, int]:
        if self._watchdog is None:
            return {}
        names = [attr for attr, _ in _WATCHDOG_INCIDENTS] + ["checkpoints", "restores"]
        return {n: int(getattr(self._watchdog, n, 0)) for n in names}

    @staticmethod
    def _diff(now: int, prev: int) -> int:
        """Restart-aware counter delta.

        A cumulative counter can shrink mid-run when its subsystem is
        reset (a controller crash resets the inner policy, which resets
        the sanitizer's tallies).  A drop means the counter restarted
        from zero, so the epoch's increment is the new value itself.
        """
        return now if now < prev else now - prev

    def _poll(self, epoch: int) -> None:
        rec = self._rec
        if self._injector is not None:
            now = dict(self._injector.counts)
            for kind, value in now.items():
                diff = self._diff(value, self._fault_prev.get(kind, 0))
                if diff:
                    rec.emit("fault", epoch=epoch, kind=kind, count=diff)
            self._fault_prev = now
        rejected, fallback = self._sanitizer_counts()
        d_rej = self._diff(rejected, self._san_prev[0])
        d_fb = self._diff(fallback, self._san_prev[1])
        if d_rej or d_fb:
            rec.emit("sanitizer", epoch=epoch, rejected=d_rej, fallback=d_fb)
        self._san_prev = (rejected, fallback)
        if self._watchdog is not None:
            now_wd = self._watchdog_counts()
            for attr, incident in _WATCHDOG_INCIDENTS:
                diff = self._diff(now_wd[attr], self._wd_prev.get(attr, 0))
                if diff:
                    rec.emit("watchdog", epoch=epoch, event=incident, count=diff)
            for attr, action in (("checkpoints", "save"), ("restores", "restore")):
                diff = self._diff(now_wd.get(attr, 0), self._wd_prev.get(attr, 0))
                for _ in range(diff):
                    rec.emit("checkpoint", epoch=epoch, action=action)
            self._wd_prev = now_wd


def run_controller(
    cfg: SystemConfig,
    workload: Workload,
    controller: Controller,
    n_epochs: int,
    sensors: Optional[SensorSuite] = None,
    record_per_core: bool = False,
    variation: Optional[CoreVariation] = None,
    memory_system: Optional[MemorySystem] = None,
    hetero: Optional[HeterogeneousMap] = None,
    validate: Optional[bool] = None,
    faults: Union["FaultCampaign", "FaultInjector", None] = None,
    watchdog: bool = False,
    checkpoint_period: int = 0,
    max_strikes: int = 3,
    recorder: Optional[Recorder] = None,
    profile: bool = False,
    harvest: bool = False,
) -> SimulationResult:
    """Convenience wrapper: build the chip, run, return the result.

    ``faults`` attaches a fault campaign to the chip; ``watchdog``,
    ``checkpoint_period`` and ``max_strikes`` are forwarded to
    :func:`simulate` (checkpoint cadence in epochs), as are ``recorder``,
    ``profile`` and ``harvest`` (see :mod:`repro.obs` and
    :mod:`repro.offline`).
    """
    chip = ManyCoreChip(
        cfg,
        workload,
        sensors=sensors,
        variation=variation,
        memory_system=memory_system,
        hetero=hetero,
        validate=validate,
        faults=faults,
    )
    return simulate(
        chip,
        controller,
        n_epochs,
        record_per_core=record_per_core,
        validate=validate,
        watchdog=watchdog,
        checkpoint_period=checkpoint_period,
        max_strikes=max_strikes,
        recorder=recorder,
        profile=profile,
        harvest=harvest,
    )
