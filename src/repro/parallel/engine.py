"""Process-pool execution of run cells.

The engine takes an ordered list of :class:`CellTask`s (a
:class:`~repro.parallel.cells.RunCell` plus everything needed to run it),
executes them across ``jobs`` worker processes, and returns results in
task order.  Five properties drive the design:

**Determinism.**  Workers are started with the ``spawn`` method, so a
worker inherits no forked interpreter state — in particular no RNG state
— from the parent.  Every cell rebuilds its controller inside the worker
from the factory's explicit seed, making a parallel cell's trajectory
bit-identical to the same cell run serially (see
:mod:`repro.parallel.compare` for the one wall-clock exception).

**Crash containment.**  A worker that dies mid-cell (OOM kill, segfault,
``os._exit``) breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`;
the engine rebuilds the pool and resubmits the unfinished cells.
Ordinary exceptions inside a cell are caught in the worker and shipped
back as values, so only hard crashes ever break a pool.

**Graceful degradation.**  Every unsuccessful attempt is *classified* by
a :class:`~repro.parallel.retry.RetryPolicy`: transient infrastructure
faults (worker crash, straggler timeout, IPC error) are retried with
bounded, seeded backoff; deterministic failures (a bad config, a contract
violation) fail fast — the first attempt already proved the outcome — and
a "transient" error that reproduces verbatim twice is treated as
deterministic in disguise.  A per-cell soft deadline (``timeout``) arms a
hung-worker watchdog that cancels stragglers and re-queues innocent
bystanders without charging their attempt budgets.  Cache writes are
best-effort (:meth:`~repro.parallel.cache.ResultCache.put_safe`): a full
disk costs a recompute later, never the run.  A cell that exhausts its
budget is recorded as a structured :class:`CellFailure`;
:func:`execute_cells` raises them together as
:class:`ParallelExecutionError`, while :func:`execute_cells_report`
returns partial results plus the failure report instead of raising.

**Caching and resume.**  With a
:class:`~repro.parallel.cache.ResultCache`, each cell's
:func:`~repro.parallel.cache.cell_key` is probed before any work is
scheduled and computed results are persisted by the parent (workers never
touch the cache, so there are no write races between processes).  Reads
verify integrity: a corrupt entry is quarantined — surfaced as a
``cache_quarantine`` event and counted in the engine summary — and the
cell recomputed.  With a :class:`~repro.parallel.journal.CampaignJournal`,
every settlement is checkpointed so a killed campaign resumes completing
only the missing cells, bit-identical to an uninterrupted run.

**Units and placement.**  After the cache probe the pending cells are
planned once into *units*, the engine's only unit of work.  With
``batch`` on, each :func:`~repro.batch.plan_batches` group is a stacked
unit (one :func:`~repro.batch.simulate_batch` call) and a cell the
stacked backend declines is an unstacked unit; with ``batch`` off every
cell is an unstacked unit (one ``run_controller`` call).  Stacked units
always run in the calling process; unstacked units run in the spawn pool
when ``jobs > 1`` and in the calling process otherwise.  Every unit goes
through the same loop — retry classification and backoff, chaos
injection, cache writes, a journal record per cell — on one of two
executors: the pool, or an in-process executor that runs one unit at a
time and settles it before the next starts.  A stack that raises is not
retried as a stack; its members re-enter as unstacked units.  In the
calling process only transient chaos faults fire (it cannot kill or
preempt itself), and attempts catch ``Exception`` only, so Ctrl-C still
stops a run.
"""

from __future__ import annotations

import copy
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.manycore.config import SystemConfig
from repro.obs import NULL_RECORDER, BufferRecorder, CounterRegistry, Recorder
from repro.obs.metrics import Number
from repro.parallel.cache import ResultCache, cell_key
from repro.parallel.cells import RunCell
from repro.parallel.chaos import ChaosPolicy
from repro.parallel.journal import CampaignJournal, campaign_id
from repro.parallel.retry import RetryPolicy
from repro.sim.results import SimulationResult
from repro.workloads.phases import Workload

__all__ = [
    "CellTask",
    "CellFailure",
    "ExecutionReport",
    "ParallelExecutionError",
    "execute_cells",
    "execute_cells_report",
]

CacheLike = Union[ResultCache, str, Path, None]
JournalLike = Union[CampaignJournal, str, Path, None]


@dataclass(frozen=True)
class CellTask:
    """A run cell bundled with everything a worker needs to execute it.

    ``cfg`` must already carry the cell's effective power budget (the
    planners apply :attr:`RunCell.budget` overrides before building
    tasks).  For ``jobs > 1`` the whole task is pickled to the worker, so
    ``factory`` must be picklable — the ``functools.partial`` factories
    from :func:`repro.sim.runner.standard_controllers` are; lambdas are
    not.
    """

    cell: RunCell
    cfg: SystemConfig
    workload: Workload
    factory: Any
    sim_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: Observability switches.  Deliberately *outside* ``sim_kwargs`` so
    #: they never enter :func:`~repro.parallel.cache.cell_key` — tracing
    #: or profiling a run must not change its cache identity (the
    #: trajectory is bit-identical either way).  With ``trace``, the
    #: worker collects the run's events in a
    #: :class:`~repro.obs.BufferRecorder` and ships them back with the
    #: result for task-ordered replay in the parent.
    trace: bool = False
    profile: bool = False


@dataclass(frozen=True)
class CellFailure:
    """Structured record of a cell whose attempts were exhausted or cut off.

    Attributes
    ----------
    cell:
        The failed cell.
    attempts:
        Unsuccessful attempts consumed (includes pool-crash casualties).
    error_type:
        Qualified exception type name of the *latest* failure;
        ``"WorkerCrash"`` when the worker process died without raising,
        ``"CellTimeout"`` when the soft-deadline watchdog cancelled it.
    message:
        The exception message (or crash/timeout description).
    traceback_text:
        Formatted worker-side traceback when one exists, else ``""``.
    classification:
        ``"transient"`` or ``"deterministic"`` per the run's
        :class:`~repro.parallel.retry.RetryPolicy` — deterministic
        failures fail fast without consuming the retry budget.
    """

    cell: RunCell
    attempts: int
    error_type: str
    message: str
    traceback_text: str = ""
    classification: str = "deterministic"

    def __str__(self) -> str:
        return (
            f"{self.cell.label()}: {self.error_type}: {self.message} "
            f"({self.classification}, after {self.attempts} attempts)"
        )


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of one engine invocation, failures included.

    Returned by :func:`execute_cells_report` (partial-results mode): the
    caller gets every completed cell *and* a structured account of every
    failure instead of an exception that discards the survivors.

    Attributes
    ----------
    results:
        Per-task results in task order; ``None`` where the cell failed.
    failures:
        Every :class:`CellFailure`, in task order.
    counters:
        The invocation's counter snapshot (what ``engine_summary`` emits).
    campaign:
        Content-addressed campaign id when a journal was used.
    resumed:
        Cells the journal reported already completed on entry.
    """

    results: Tuple[Optional[SimulationResult], ...]
    failures: Tuple[CellFailure, ...]
    counters: Dict[str, Number]
    campaign: Optional[str] = None
    resumed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def completed(self) -> List[SimulationResult]:
        """The successful results, in task order."""
        return [r for r in self.results if r is not None]


class ParallelExecutionError(RuntimeError):
    """One or more cells failed after retries; carries every failure."""

    def __init__(self, failures: Sequence[CellFailure]) -> None:
        self.failures: Tuple[CellFailure, ...] = tuple(failures)
        lines = "\n  ".join(str(f) for f in self.failures)
        super().__init__(
            f"{len(self.failures)} cell(s) failed after retries:\n  {lines}"
        )


@dataclass
class _Unit:
    """One unit of work: a stack of cells, or one unstacked cell.

    ``group`` is a stack's index in the batch plan and ``-1`` for an
    unstacked cell.  The retry state (attempts, failure history, backoff
    deadline, last partial trace) belongs to unstacked units only: a stack
    is never retried as a stack.
    """

    members: Tuple[int, ...]
    group: int = -1
    attempts: int = 0
    not_before: float = 0.0
    history: List[Tuple[str, str]] = field(default_factory=list)
    error_events: Any = None

    @property
    def stacked(self) -> bool:
        return self.group >= 0


def _run_unit(
    tasks: Sequence[CellTask],
    stacked: bool,
    chaos: Optional[ChaosPolicy],
    attempt: int,
    inline: bool,
    record: bool,
) -> Tuple[str, Any]:
    """Run one unit; its outcome comes back as a value, never raised.

    A stacked unit calls :func:`repro.batch.simulate_batch` (looked up at
    call time, so the attribute can be swapped) and an unstacked one
    builds its controller and calls
    :func:`~repro.sim.simulator.run_controller` on a private deep copy of
    ``sim_kwargs``: a stateful option such as a noisy ``SensorSuite``
    starts every attempt from the caller's state, in this process exactly
    as in a pool worker that unpickled its own copy.

    ``"ok"`` carries one ``(result, events)`` pair per member, ``events``
    being the member's buffered trace when it is traced and ``record`` is
    set.  ``"error"`` carries ``(type, message, traceback, events)``, the
    last being an unstacked cell's partial buffer, so a cell that fails
    for good still leaves a trace through its last completed epoch.

    ``chaos`` (when armed) fires before the cells simulate, keyed by each
    cell's label and the 1-based ``attempt``: worker faults in a pool
    worker, transient errors only ``inline``.  Inline attempts catch
    ``Exception`` only, so Ctrl-C still stops the run; a worker ships
    every failure home so that only process death breaks the pool.
    """
    buffers = [
        BufferRecorder() if task.trace and record else None for task in tasks
    ]
    caught = Exception if inline else BaseException
    try:
        if chaos is not None:
            start = chaos.inline_cell_start if inline else chaos.at_cell_start
            for task in tasks:
                start(task.cell.label(), attempt)
        if stacked:
            # Imported here, not at module level: the simulator pulls in
            # the full plant stack, and worker processes import this
            # module on spawn.
            import repro.batch

            if any(buffer is not None for buffer in buffers):
                results = repro.batch.simulate_batch(list(tasks), recorders=buffers)
            else:
                results = repro.batch.simulate_batch(list(tasks))
        else:
            from repro.sim.simulator import run_controller

            (task,) = tasks
            results = [
                run_controller(
                    task.cfg,
                    task.workload,
                    task.factory(task.cfg),
                    task.cell.n_epochs,
                    recorder=buffers[0],
                    profile=task.profile,
                    **copy.deepcopy(dict(task.sim_kwargs)),
                )
            ]
    except caught as exc:
        events = buffers[0].events if buffers[0] is not None else None
        return "error", (
            type(exc).__qualname__,
            str(exc),
            traceback.format_exc(),
            events if events and not stacked else None,
        )
    return "ok", [
        (result, buffer.events if buffer is not None else None)
        for result, buffer in zip(results, buffers)
    ]


class _InlineExecutor:
    """The in-process executor: each submitted unit runs to completion
    before :meth:`submit` returns, so at most one is ever in flight."""

    def submit(self, fn: Any, *args: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        future.set_result(fn(*args))
        return future


def _plan_units(
    tasks: Sequence[CellTask],
    pending: List[int],
    batch: Union[bool, int],
    rec: Recorder,
    metrics: CounterRegistry,
) -> List[_Unit]:
    """Plan the cache-missed cells into units, in task order of each
    unit's first cell.

    With ``batch`` off every cell is an unstacked unit.  With it on, each
    :func:`~repro.batch.plan_batches` group becomes a stacked unit, and a
    cell the stacked backend declines becomes an unstacked unit with a
    recorded ``cell_fallback`` reason.
    """
    if not batch:
        return [_Unit((i,)) for i in pending]
    # Imported here: repro.batch pulls in the full plant + controller
    # stack, which the engine otherwise avoids loading.
    from repro.batch import batch_unsupported_reason, plan_batches

    units: List[_Unit] = []
    batchable: List[int] = []
    for i in pending:
        reason = batch_unsupported_reason(tasks[i])
        if reason is None:
            batchable.append(i)
            continue
        units.append(_Unit((i,)))
        metrics.inc(f"engine.fallback.{reason}")
        if rec.enabled:
            rec.emit("cell_fallback", cell=tasks[i].cell.label(), reason=reason)
    if batchable:
        max_batch = len(batchable) if batch is True else int(batch)
        plan = plan_batches([tasks[i] for i in batchable], max_batch)
        for group, members in enumerate(plan):
            units.append(_Unit(tuple(batchable[j] for j in members), group=group))
    units.sort(key=lambda unit: unit.members[0])
    return units


def _coerce_cache(cache: CacheLike) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _terminate_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes (the watchdog's cancel mechanism).

    ``ProcessPoolExecutor`` has no public per-future cancel for running
    work, so the watchdog terminates the workers and lets the engine's
    broken-pool path rebuild and resubmit.  Accessing ``_processes`` is
    deliberate and defensive: if the attribute moves in a future Python,
    the watchdog degrades to waiting out the straggler instead of
    crashing the campaign.
    """
    processes = getattr(pool, "_processes", None)
    if not processes:
        return
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            # Already-reaped process or platform refusal: the rebuild
            # path below handles stragglers either way.
            continue


def _drain_quarantine(
    rec: Recorder,
    metrics: CounterRegistry,
    store: ResultCache,
    cursor: int,
) -> int:
    """Emit ``cache_quarantine`` events for log entries past ``cursor``;
    return the new cursor.  The engine owns event emission so the cache
    stays recorder-free."""
    while cursor < len(store.quarantine_log):
        key, reason = store.quarantine_log[cursor]
        cursor += 1
        metrics.inc("engine.cache_quarantines")
        if rec.enabled:
            rec.emit("cache_quarantine", key=key, reason=reason)
    return cursor



def _replay_events(rec: Recorder, events: Sequence[Mapping[str, Any]]) -> None:
    """Re-emit a unit's buffered events into the parent recorder
    (sequence numbers are re-stamped by the parent's own counter)."""
    for event in events:
        payload = {k: v for k, v in event.items() if k not in ("type", "seq")}
        rec.emit(event["type"], **payload)


def execute_cells(
    tasks: Sequence[CellTask],
    jobs: int = 1,
    cache: CacheLike = None,
    retries: int = 1,
    recorder: Optional[Recorder] = None,
    batch: Union[bool, int] = False,
    retry_policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    chaos: Optional[ChaosPolicy] = None,
    journal: JournalLike = None,
) -> List[SimulationResult]:
    """Execute every task, in parallel when ``jobs > 1``, with caching.

    Parameters
    ----------
    tasks:
        The cells to run; results come back in the same order.
    jobs:
        Worker process count.  ``1`` runs every cell in the calling
        process (no pool, no pickling); stacks always run in the calling
        process.
    cache:
        A :class:`ResultCache`, a directory path to open one at, or
        ``None`` to disable caching.  Hits skip execution entirely;
        computed cells are persisted for the next invocation.  Reads are
        integrity-verified: corrupt entries are quarantined (emitting
        ``cache_quarantine``) and recomputed; writes are best-effort, so
        a full disk costs a recompute later, never the run.
    retries:
        Extra attempts a cell is granted after an unsuccessful one.
        Shorthand for ``retry_policy=RetryPolicy(retries=...)`` with zero
        backoff; ignored when ``retry_policy`` is given.
    recorder:
        Optional event sink (see :mod:`repro.obs`).  The engine emits
        cell lifecycle events (``cell_start`` / ``cell_cached`` /
        ``cell_done`` / ``cell_failed``), retry-stack incidents
        (``cell_retry`` / ``cell_timeout`` / ``cell_abandoned``), cache
        integrity incidents (``cache_quarantine``), ``campaign_resume``
        when a journal resumes, and a closing ``engine_summary``; per-run
        events (for tasks with ``trace=True``) are buffered per unit and
        replayed in task order, so the trace is deterministic regardless
        of worker scheduling.
    batch:
        Route cache-missed, batch-compatible cells through the stacked
        tensor backend (:mod:`repro.batch`) as stacked units.
        ``True`` stacks each compatible group whole; an integer caps the
        runs per stack.  Mixed budgets, seeds, epoch counts, fault
        campaigns, variation/hetero maps, and watchdog supervision all
        stack, traced and profiled cells included.  Cells the backend
        declines (non-default ``sensors``/``memory_system`` — see
        :func:`repro.batch.batch_unsupported_reason`) or whose stack
        fails run unstacked with a recorded ``cell_fallback`` reason;
        results are bit-identical either way.  Batch membership never
        enters :func:`~repro.parallel.cache.cell_key`.
    retry_policy:
        Full control of retry behaviour: transient/deterministic error
        classification, the identical-failure cutoff, and bounded
        exponential backoff with seeded jitter (see
        :class:`~repro.parallel.retry.RetryPolicy`).
    timeout:
        Per-cell soft deadline in seconds (pool cells only).  A cell
        still running past it is cancelled by the hung-worker watchdog —
        its workers are terminated, the straggler is charged an attempt
        (error type ``CellTimeout``, transient), and innocent in-flight
        cells are re-queued *without* consuming their budgets.  The
        clock starts when the pool marks the cell running, which
        includes fresh-worker spawn/import time (seconds on a cold
        machine): pick deadlines comfortably above worker spin-up.
    chaos:
        A :class:`~repro.parallel.chaos.ChaosPolicy` injecting seeded,
        deterministic infrastructure faults (worker crash/hang/transient
        at cell start; cache corruption/truncation/disk-full around
        writes).  Test and soak harness use only; ``None`` is exactly
        today's behaviour.
    journal:
        A :class:`~repro.parallel.journal.CampaignJournal` (or a path to
        create one at) checkpointing every cell settlement.  Requires
        cacheable tasks; when ``cache`` is ``None`` a sibling cache
        directory is derived from the journal path.  Re-running with the
        same journal and cache completes only the missing cells and is
        bit-identical to an uninterrupted run.

    Raises
    ------
    ParallelExecutionError
        If any cell exhausted its attempts; carries the full failure
        list.  Use :func:`execute_cells_report` to receive partial
        results instead of an exception.
    """
    report = execute_cells_report(
        tasks,
        jobs=jobs,
        cache=cache,
        retries=retries,
        recorder=recorder,
        batch=batch,
        retry_policy=retry_policy,
        timeout=timeout,
        chaos=chaos,
        journal=journal,
    )
    if report.failures:
        raise ParallelExecutionError(report.failures)
    settled = report.completed()
    if len(settled) != len(tasks):
        raise RuntimeError(
            f"engine invariant violated: {len(tasks) - len(settled)} cell(s) "
            "neither produced a result nor recorded a failure"
        )
    return settled


def execute_cells_report(
    tasks: Sequence[CellTask],
    jobs: int = 1,
    cache: CacheLike = None,
    retries: int = 1,
    recorder: Optional[Recorder] = None,
    batch: Union[bool, int] = False,
    retry_policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    chaos: Optional[ChaosPolicy] = None,
    journal: JournalLike = None,
) -> ExecutionReport:
    """Partial-results variant of :func:`execute_cells`.

    Never raises for cell failures: the returned
    :class:`ExecutionReport` carries every completed result (in task
    order, ``None`` where a cell failed) alongside the structured failure
    list, so a campaign with one poisoned cell still delivers the other
    results — and, with a journal, the failed cells stay pending for the
    next resume.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if batch is not True and batch is not False and int(batch) < 1:
        raise ValueError(f"batch must be a bool or a positive int, got {batch}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
    policy = (
        retry_policy
        if retry_policy is not None
        else RetryPolicy(retries=retries, base_delay=0.0, max_delay=0.0, jitter=0.0)
    )
    store = _coerce_cache(cache)
    jour: Optional[CampaignJournal] = None
    if journal is not None:
        jour = (
            journal
            if isinstance(journal, CampaignJournal)
            else CampaignJournal(journal)
        )
        if store is None:
            # A journal without a cache could checkpoint but never resume
            # (results would be lost); derive a sibling store instead.
            store = ResultCache(jour.path.parent / (jour.path.name + ".cache"))
    if chaos is not None and store is not None and store.chaos is None:
        store.chaos = chaos

    rec: Recorder = recorder if recorder is not None else NULL_RECORDER
    metrics = CounterRegistry()
    metrics.set_gauge("engine.jobs", jobs)
    metrics.set_gauge("engine.cells_total", len(tasks))
    cache0: Dict[str, int] = {}
    if store is not None:
        cache0 = {
            "hits": store.hits,
            "misses": store.misses,
            "corrupt": store.corrupt,
            "quarantined": store.quarantined,
            "put_errors": store.put_errors,
        }
    q_cursor = len(store.quarantine_log) if store is not None else 0

    results: List[Optional[SimulationResult]] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    if store is not None:
        for i, task in enumerate(tasks):
            keys[i] = cell_key(
                task.cell, task.cfg, task.workload, task.factory, task.sim_kwargs
            )

    try:
        campaign: Optional[str] = None
        resumed = 0
        if jour is not None:
            campaign = campaign_id([k for k in keys if k is not None])
            journal_completed = jour.begin(campaign, len(tasks))
            resumed = sum(1 for k in keys if k in journal_completed)
            if resumed:
                metrics.set_gauge("engine.cells_resumed", resumed)
                if rec.enabled:
                    rec.emit(
                        "campaign_resume",
                        campaign=campaign,
                        total=len(tasks),
                        completed=resumed,
                        pending=len(tasks) - resumed,
                    )

        pending: List[int] = []
        for i, task in enumerate(tasks):
            if rec.enabled:
                rec.emit("cell_start", cell=task.cell.label())
            key = keys[i]
            if store is not None and key is not None:
                hit = store.get(key)
                q_cursor = _drain_quarantine(rec, metrics, store, q_cursor)
                if hit is not None:
                    results[i] = hit
                    metrics.inc("engine.cells_cached")
                    if rec.enabled:
                        rec.emit("cell_cached", cell=task.cell.label())
                    if jour is not None:
                        jour.record_done(i, key, cached=True)
                    continue
            pending.append(i)

        units = _plan_units(tasks, pending, batch, rec, metrics)
        failures_of = _run_units(
            units, tasks, keys, results, store, jour, rec, metrics, policy,
            timeout, chaos, jobs,
        )
        if store is not None:
            q_cursor = _drain_quarantine(rec, metrics, store, q_cursor)
        counters = _summary_counters(metrics, store, cache0)
        if rec.enabled:
            rec.emit("engine_summary", counters=counters)
        return ExecutionReport(
            results=tuple(results),
            failures=tuple(failures_of[i] for i in sorted(failures_of)),
            counters=counters,
            campaign=campaign,
            resumed=resumed,
        )
    finally:
        if jour is not None:
            jour.close()
        # Durability on the unhappy path: a run that raises mid-campaign
        # must not lose the recorder's buffered tail (satellite of the
        # torn-trace bug).  ``getattr`` keeps third-party recorders that
        # predate ``flush`` working.
        flush = getattr(rec, "flush", None)
        if callable(flush):
            flush()


def _settle_failure(
    task: CellTask,
    attempts: int,
    error: Tuple[str, str, str],
    policy: RetryPolicy,
    metrics: CounterRegistry,
    notes: Dict[int, List[Tuple[str, Dict[str, Any]]]],
    index: int,
) -> CellFailure:
    """Build the :class:`CellFailure` for a cell that gets no more attempts,
    noting a ``cell_abandoned`` event when budget remained unspent."""
    error_type, message, tb_text = error
    classification = policy.classify(error_type, message)
    if attempts <= policy.retries:
        metrics.inc("engine.cells_abandoned")
        notes.setdefault(index, []).append(
            (
                "cell_abandoned",
                {
                    "attempts": attempts,
                    "error_type": error_type,
                    "classification": classification,
                },
            )
        )
    metrics.inc("engine.cells_failed")
    return CellFailure(
        cell=task.cell,
        attempts=attempts,
        error_type=error_type,
        message=message,
        traceback_text=tb_text,
        classification=classification,
    )


def _note_retry(
    task: CellTask,
    attempts: int,
    error: Tuple[str, str, str],
    policy: RetryPolicy,
    metrics: CounterRegistry,
    notes: Dict[int, List[Tuple[str, Dict[str, Any]]]],
    index: int,
) -> None:
    """Record one granted retry (counter + deferred ``cell_retry`` event)."""
    error_type, message, _ = error
    metrics.inc("engine.retries")
    notes.setdefault(index, []).append(
        (
            "cell_retry",
            {
                "attempt": attempts,
                "error_type": error_type,
                "classification": policy.classify(error_type, message),
                "delay": policy.delay_before(attempts + 1, task.cell.label()),
            },
        )
    )



#: Error records of a pool worker that died: the unit's own process, or a
#: sibling's death taking down the unit while queued or in flight.
_WORKER_DIED = ("WorkerCrash", "worker process died before returning a result", "")
_POOL_BROKE = (
    "WorkerCrash",
    "worker pool broke while the cell was queued/in flight",
    "",
)


def _run_units(
    units: List[_Unit],
    tasks: Sequence[CellTask],
    keys: List[Optional[str]],
    results: List[Optional[SimulationResult]],
    store: Optional[ResultCache],
    jour: Optional[CampaignJournal],
    rec: Recorder,
    metrics: CounterRegistry,
    policy: RetryPolicy,
    timeout: Optional[float],
    chaos: Optional[ChaosPolicy],
    jobs: int,
) -> Dict[int, CellFailure]:
    """The engine's one loop: dispatch units, watch them, classify each
    failure, back off, retry or settle.  Returns the failures by task
    index; results land in ``results``.

    Stacked units — and every unit when ``jobs == 1`` — run on the
    in-process executor, one at a time, each settled (cache put, journal
    record) before the next starts.  Unstacked units go to a spawn pool
    when ``jobs > 1``; the pool is built only once one needs it, and
    rebuilt after a crash or a watchdog kill (one *round* per pool).

    Backoff never blocks dispatch: a retried unit carries a
    ``not_before`` deadline and steps aside while ready units run, and the
    loop sleeps only when every waiting unit is backing off, so one flaky
    cell never stalls ready cells or the watchdog.

    A stack is never retried as a stack: when its attempt raises, each
    member re-enters as an unstacked unit with its attempt budget
    untouched (``cell_fallback`` reason ``"batch-error"``), so a batching
    defect can cost time but never a result.

    Deferred events — retry-stack notes, buffered traces, settle events —
    are replayed in task order as soon as every earlier cell has settled,
    so the trace is a deterministic function of the task list.
    """
    failures_of: Dict[int, CellFailure] = {}
    success_attempts: Dict[int, int] = {}
    event_buffers: Dict[int, Any] = {}
    notes: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}
    batched: Dict[int, Tuple[int, int]] = {}
    order = sorted(i for unit in units for i in unit.members)
    replayed = 0

    def replay_settled() -> None:
        nonlocal replayed
        while replayed < len(order) and (
            order[replayed] in success_attempts or order[replayed] in failures_of
        ):
            i = order[replayed]
            replayed += 1
            label = tasks[i].cell.label()
            for note_type, payload in notes.pop(i, []):
                rec.emit(note_type, cell=label, **payload)
            events = event_buffers.pop(i, None)
            if events:
                _replay_events(rec, events)
            if i in failures_of:
                failure = failures_of[i]
                rec.emit(
                    "cell_failed",
                    cell=label,
                    attempts=failure.attempts,
                    error_type=failure.error_type,
                )
            else:
                if i in batched:
                    group, size = batched[i]
                    rec.emit("cell_batched", cell=label, group=group, size=size)
                rec.emit("cell_done", cell=label, attempts=success_attempts[i])

    def succeed(u: int, outcomes: Sequence[Tuple[SimulationResult, Any]]) -> None:
        unit = units[u]
        for i, (result, events) in zip(unit.members, outcomes):
            results[i] = result
            success_attempts[i] = unit.attempts + 1
            if events:
                event_buffers[i] = events
            metrics.inc("engine.cells_run")
            if unit.stacked:
                metrics.inc("engine.cells_batched")
                batched[i] = (unit.group, len(unit.members))
            key = keys[i]
            if store is not None and key is not None:
                store.put_safe(key, result)
            if jour is not None and key is not None:
                jour.record_done(i, key)
        if unit.stacked:
            metrics.inc("engine.batch_groups")

    def fail(u: int, error: Tuple[str, str, str], events: Any) -> None:
        unit = units[u]
        if unit.stacked:
            metrics.inc("engine.batch_errors")
            for i in unit.members:
                metrics.inc("engine.fallback.batch-error")
                notes.setdefault(i, []).append(
                    ("cell_fallback", {"reason": "batch-error"})
                )
                units.append(_Unit((i,)))
                queue.append(len(units) - 1)
            return
        i = unit.members[0]
        unit.attempts += 1
        unit.history.append((error[0], error[1]))
        if events:
            unit.error_events = events
        if policy.should_retry(unit.attempts, unit.history):
            _note_retry(tasks[i], unit.attempts, error, policy, metrics, notes, i)
            unit.not_before = time.monotonic() + policy.delay_before(
                unit.attempts + 1, tasks[i].cell.label()
            )
            queue.append(u)
            return
        if unit.error_events:
            # Permanent failure: replay the last attempt's partial trace
            # through its final completed epoch.
            event_buffers[i] = unit.error_events
        failures_of[i] = _settle_failure(
            tasks[i], unit.attempts, error, policy, metrics, notes, i
        )
        key = keys[i]
        if jour is not None and key is not None:
            jour.record_failed(i, key, error[0], unit.attempts)

    def pooled(u: int) -> bool:
        return jobs > 1 and not units[u].stacked

    inline = _InlineExecutor()
    queue = list(range(len(units)))
    while queue:
        pool: Optional[ProcessPoolExecutor] = None
        in_flight: Dict["Future[Any]", int] = {}
        running_since: Dict["Future[Any]", float] = {}
        broken = watchdog_broke = False
        try:
            while (queue or in_flight) and not broken:
                now = time.monotonic()
                ripe = [u for u in queue if units[u].not_before <= now]
                # Pool units first, so workers compute while a stack runs
                # in this process; then at most one in-process unit.
                dispatch = [u for u in ripe if pooled(u)]
                dispatch += [u for u in ripe if not pooled(u)][:1]
                for u in dispatch:
                    executor: Any = inline
                    if pooled(u):
                        if pool is None:
                            # Spawn-context workers start on demand, so a
                            # pool never outnumbers the units it runs.
                            pool = ProcessPoolExecutor(
                                max_workers=jobs, mp_context=get_context("spawn")
                            )
                        executor = pool
                    unit = units[u]
                    try:
                        fut = executor.submit(
                            _run_unit,
                            [tasks[i] for i in unit.members],
                            unit.stacked,
                            chaos,
                            unit.attempts + 1,
                            executor is inline,
                            rec.enabled,
                        )
                    except BrokenProcessPool:
                        # The pool died under us: undispatched units keep
                        # their deadlines for the next round.
                        broken = True
                        break
                    queue.remove(u)
                    in_flight[fut] = u
                if broken:
                    break
                if not in_flight:
                    # Every waiting unit is backing off: sleep to the
                    # nearest deadline instead of spinning.
                    wake = min(units[u].not_before for u in queue)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue
                # Poll when a watchdog deadline or a backoff is armed; a
                # plain blocking wait otherwise.
                ticks: List[float] = []
                if timeout is not None:
                    ticks.append(max(0.01, min(0.05, timeout / 5.0)))
                if queue:
                    wake = min(units[u].not_before for u in queue)
                    ticks.append(max(0.01, wake - time.monotonic()))
                done, _ = wait(
                    list(in_flight),
                    timeout=min(ticks) if ticks else None,
                    return_when=FIRST_COMPLETED,
                )
                for fut in sorted(done, key=lambda f: units[in_flight[f]].members):
                    u = in_flight.pop(fut)
                    try:
                        status, payload = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        fail(u, _WORKER_DIED, None)
                        continue
                    except Exception as exc:
                        # Submission-side errors (e.g. an unpicklable lambda
                        # factory) surface here rather than in the worker;
                        # they consume an attempt like any other failure.
                        error = (type(exc).__qualname__, str(exc), traceback.format_exc())
                        fail(u, error, None)
                        continue
                    if status == "ok":
                        succeed(u, payload)
                    else:
                        fail(u, payload[:3], payload[3])
                if rec.enabled:
                    replay_settled()
                if broken or timeout is None or not in_flight:
                    continue
                # Soft-deadline watchdog: charge stragglers, kill the pool,
                # and re-queue the innocents for free (their budgets are
                # untouched).  Only pool units are ever left in flight.
                now = time.monotonic()
                for fut in in_flight:
                    if fut.running() and fut not in running_since:
                        running_since[fut] = now
                expired = [
                    fut
                    for fut in in_flight
                    if fut in running_since and now - running_since[fut] >= timeout
                ]
                if expired and pool is not None:
                    broken = watchdog_broke = True
                    for fut in expired:
                        u = in_flight.pop(fut)
                        metrics.inc("engine.timeouts")
                        notes.setdefault(units[u].members[0], []).append(
                            (
                                "cell_timeout",
                                {"attempt": units[u].attempts + 1, "deadline": timeout},
                            )
                        )
                        deadline = f"cell exceeded its soft deadline of {timeout}s"
                        fail(u, ("CellTimeout", deadline, ""), None)
                    _terminate_pool_processes(pool)
            for fut, u in in_flight.items():
                fut.cancel()
                if watchdog_broke:
                    # Innocent bystanders of a watchdog kill: re-queued
                    # with their attempt budgets untouched.
                    metrics.inc("engine.requeued")
                    queue.append(u)
                else:
                    # Casualties of a genuine crash: one attempt each,
                    # then resubmit to a fresh pool.
                    fail(u, _POOL_BROKE, None)
        finally:
            if pool is not None:
                pool.shutdown()
        if rec.enabled:
            replay_settled()
    return failures_of


def _summary_counters(
    metrics: CounterRegistry,
    store: Optional[ResultCache],
    cache0: Dict[str, int],
) -> Dict[str, Number]:
    """The invocation's counter snapshot, with this invocation's cache
    deltas folded in — what ``engine_summary`` emits and
    :attr:`ExecutionReport.counters` carries."""
    counters = metrics.snapshot()
    if store is not None:
        counters["cache.hits"] = store.hits - cache0.get("hits", 0)
        counters["cache.misses"] = store.misses - cache0.get("misses", 0)
        counters["cache.corrupt"] = store.corrupt - cache0.get("corrupt", 0)
        counters["cache.quarantined"] = store.quarantined - cache0.get(
            "quarantined", 0
        )
        counters["cache.put_errors"] = store.put_errors - cache0.get(
            "put_errors", 0
        )
    return counters
