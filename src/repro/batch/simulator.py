"""Stack planning for the batched backend.

The batched backend runs a group of independent run cells as one stack
of the simulate loop (:func:`repro.sim.simulator.simulate_stack`): one
:class:`~repro.kernel.epoch.EpochKernel` plus one
:class:`~repro.kernel.policies.BatchPolicy` advance every run with a
single array epoch step, returning one ordinary
:class:`~repro.sim.results.SimulationResult` per cell — the same loop
that runs a serial cell as a one-row stack, which is what the
conformance suite in ``tests/kernel/`` verifies bit for bit.

Runs in one stack may differ in power budget, seed, workload recipe,
fault campaign, and epoch count: a *ragged* group is padded to the
longest run and finished rows are masked out via the kernel's ``active``
row mask, so shorter runs see exactly the operation sequence of a
shorter batch.  Watchdog-supervised cells batch too — each run gets its
own :class:`~repro.faults.watchdog.WatchdogController` wrapper, driven
per run by :class:`~repro.kernel.policies.PerRunPolicy`.  Traced and
profiled cells stack as well: each traced row records into its own
recorder, and profiled rows share the stack's phase profiler.

:func:`batch_unsupported_reason` is the compatibility gate: tasks that
carry plant options the stacked kernel does not model fall back to the
serial/pool path, with the reason recorded by the engine.
:func:`plan_batches` groups the remaining tasks by everything that must
be uniform inside one stack (controller recipe modulo seed, config
modulo budget, simulation options modulo fault campaign) — budgets,
seeds, workloads, campaigns and epoch counts may differ between the runs
of one batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.faults.campaign import FaultCampaign
from repro.kernel.epoch import EpochKernel
from repro.kernel.policies import build_batch_policy
from repro.obs import Recorder
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate_stack, watchdog_driver

if TYPE_CHECKING:
    from repro.parallel.engine import CellTask

__all__ = ["batch_unsupported_reason", "plan_batches", "simulate_batch"]

#: ``run_controller`` keyword arguments the batched path understands.
#: Anything else is a new simulator feature the batch backend has not been
#: taught about — fall back rather than silently ignore it.
_KNOWN_KEYS = frozenset(
    {
        "sensors",
        "record_per_core",
        "variation",
        "memory_system",
        "hetero",
        "validate",
        "faults",
        "watchdog",
        "checkpoint_period",
        "max_strikes",
    }
)

#: Plant options the batched chip pins to their defaults (exact sensors,
#: no memory contention).  A task that overrides either needs the serial
#: plant: noisy sensor suites are stateful per-run RNG consumers the
#: vectorized sensor path does not model, and memory contention needs the
#: live phase path.  Variation and hetero maps batch fine — the kernel
#: stacks their multipliers per run.
_DEFAULT_ONLY_KEYS = ("sensors", "memory_system")


def batch_unsupported_reason(task: "CellTask") -> Optional[str]:
    """Why ``task`` cannot join a batch, or ``None`` if it can.

    The reasons are stable strings (``"faults-instance"``,
    ``"sim_kwargs:<key>"``) recorded in ``cell_fallback`` events and
    engine counters.  Tracing and profiling never force a fallback.
    """
    kwargs = dict(task.sim_kwargs)
    for key in kwargs:
        if key not in _KNOWN_KEYS:
            return f"sim_kwargs:{key}"
    faults = kwargs.get("faults")
    if faults is not None and not isinstance(faults, FaultCampaign):
        # A pre-built (possibly stateful, possibly shared) injector
        # instance cannot be safely re-seated on the batched chip.
        return "faults-instance"
    for key in _DEFAULT_ONLY_KEYS:
        if kwargs.get(key) is not None:
            return f"sim_kwargs:{key}"
    return None


def _seedless(factory: Any) -> Any:
    """``factory`` with any bound ``seed`` keyword removed, so controllers
    differing only by RNG stream land in the same batch group."""
    import functools

    if isinstance(factory, functools.partial):
        keywords = {k: v for k, v in (factory.keywords or {}).items() if k != "seed"}
        return functools.partial(factory.func, *factory.args, **keywords)
    return factory


def _option_token(key: str, value: Any) -> Any:
    """A stable-hashable stand-in for one simulation option value.

    :class:`~repro.manycore.hetero.HeterogeneousMap` is a plain class
    (not a dataclass), so :func:`~repro.parallel.cache.stable_hash`
    cannot key it directly; its per-core scale arrays carry its full
    identity, so hash those instead of demoting hetero cells to
    singleton groups.
    """
    from repro.manycore.hetero import HeterogeneousMap

    if isinstance(value, HeterogeneousMap):
        return (
            "hetero-map",
            value.freq_scale,
            value.ceff_scale,
            value.cpi_scale,
            value.leak_scale,
        )
    return value


def _group_signature(task: "CellTask", index: int) -> str:
    """Hash of everything that must be uniform within one batch group.

    Budgets are stripped from the config and ``faults`` from the options:
    those may vary per run inside a stack, as may seeds, workloads, and
    — since the kernel masks finished rows — epoch counts.  Factories
    that cannot be fingerprinted (lambdas, closures) get a per-task
    signature, i.e. a singleton group — still batched, just alone.
    """
    from repro.parallel.cache import (
        CacheKeyError,
        controller_fingerprint,
        stable_hash,
    )

    # ``None`` values mean "the default" for every supported option
    # (sensors, validate, …), so they normalize away: a task passing an
    # explicit ``sensors=None`` stacks with one that omits the key.
    options = {
        k: _option_token(k, v)
        for k, v in dict(task.sim_kwargs).items()
        if k != "faults" and v is not None
    }
    try:
        token = controller_fingerprint(_seedless(task.factory))
        return stable_hash((token, task.cfg.with_budget(1.0), options))
    except CacheKeyError:
        return f"<singleton:{index}>"


def plan_batches(tasks: Sequence["CellTask"], max_batch: int) -> List[List[int]]:
    """Group task indices into batch stacks of at most ``max_batch`` runs.

    Groups form in first-appearance order and each group is chunked
    contiguously, so the plan — and therefore every run's batch
    neighbours — is a deterministic function of the task list.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    groups: Dict[str, List[int]] = {}
    order: List[str] = []
    for i, task in enumerate(tasks):
        sig = _group_signature(task, i)
        if sig not in groups:
            groups[sig] = []
            order.append(sig)
        groups[sig].append(i)
    plan: List[List[int]] = []
    for sig in order:
        members = groups[sig]
        for start in range(0, len(members), max_batch):
            plan.append(members[start : start + max_batch])
    return plan


def simulate_batch(
    tasks: Sequence["CellTask"],
    recorders: Optional[Sequence[Optional[Recorder]]] = None,
) -> List[SimulationResult]:
    """Run a batch-compatible task group as one stack of the simulate loop.

    Every task must have passed :func:`batch_unsupported_reason` and the
    group must satisfy the uniformity of :func:`_group_signature` (the
    :class:`~repro.kernel.epoch.EpochKernel` re-checks config
    compatibility).  Epoch counts may differ: the stack is padded to the
    longest run and finished rows are masked, with each result sliced
    back to its own length.  ``recorders`` optionally gives each task its
    own event sink (the engine hands traced tasks a
    :class:`~repro.obs.BufferRecorder` and replays it in task order);
    ``task.profile`` rows carry the stack's shared timing breakdown.
    Results come back in task order, each indistinguishable from the
    serial run of the same cell (``assert_trace_equal`` holds bit for bit).
    """
    if not tasks:
        return []
    for task in tasks:
        reason = batch_unsupported_reason(task)
        if reason is not None:
            raise ValueError(
                f"task {task.cell.label()} is not batch-compatible: {reason}"
            )
    kwargs0: Mapping[str, Any] = dict(tasks[0].sim_kwargs)
    validate = kwargs0.get("validate", None)
    n_epochs = [task.cell.n_epochs for task in tasks]

    controllers = [task.factory(task.cfg) for task in tasks]
    campaigns = [dict(task.sim_kwargs).get("faults") for task in tasks]
    variations = [dict(task.sim_kwargs).get("variation") for task in tasks]
    heteros = [dict(task.sim_kwargs).get("hetero") for task in tasks]
    kernel = EpochKernel(
        [task.cfg for task in tasks],
        [task.workload for task in tasks],
        max(n_epochs),
        faults=campaigns,
        validate=validate,
        variations=(
            variations if any(v is not None for v in variations) else None
        ),
        heteros=heteros if any(h is not None for h in heteros) else None,
    )
    drivers: List[Any] = list(controllers)
    if kwargs0.get("watchdog", False):
        # Per-run wrappers, exactly as the serial simulator builds them
        # (crash schedule from each run's own campaign).  Watchdog-wrapped
        # drivers batch via PerRunPolicy: each run's decide is the serial
        # wrapper call on a row view, so crash/restore checkpointing is
        # the serial code path unchanged.
        drivers = [
            watchdog_driver(
                ctrl,
                injector,
                int(kwargs0.get("max_strikes", 3)),
                int(kwargs0.get("checkpoint_period", 0)),
            )
            for ctrl, injector in zip(controllers, kernel.faults)
        ]
    policy = build_batch_policy(drivers)
    policy.reset()
    return simulate_stack(
        kernel,
        policy,
        n_epochs,
        recorders=recorders,
        record_per_core=bool(kwargs0.get("record_per_core", False)),
        validate=validate,
        profile=[task.profile for task in tasks],
    )
