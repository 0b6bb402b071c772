"""Process-pool execution of run cells.

The engine takes an ordered list of :class:`CellTask`s (a
:class:`~repro.parallel.cells.RunCell` plus everything needed to run it),
executes them across ``jobs`` worker processes, and returns results in
task order.  Four properties drive the design:

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

``jobs=1`` without any resilience options executes inline — no pool, no
pickling, exceptions propagate raw — which is what keeps the serial entry
points byte-for-byte identical to their historical behaviour.  Passing
``retry_policy``, ``chaos``, ``timeout`` or ``journal`` opts the inline
path into the same classified-retry machinery as the pool path (worker
crash and hang injection stay pool-only: the inline process cannot kill
or preempt itself).
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

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


def _run_cell(
    task: CellTask, recorder: Optional[Recorder] = None
) -> SimulationResult:
    """Execute one cell (worker-side): build the controller, run the loop."""
    # Imported here, not at module level: the simulator pulls in the full
    # plant stack, and worker processes import this module on spawn.
    from repro.sim.simulator import run_controller

    controller = task.factory(task.cfg)
    return run_controller(
        task.cfg,
        task.workload,
        controller,
        task.cell.n_epochs,
        recorder=recorder,
        profile=task.profile,
        **dict(task.sim_kwargs),
    )


def _run_cell_guarded(
    task: CellTask,
    chaos: Optional[ChaosPolicy] = None,
    attempt: int = 1,
) -> Tuple[str, Any]:
    """Worker entry: exceptions come back as values, never as raised errors.

    Returning ``("error", ...)`` instead of raising keeps ordinary cell
    failures (bad config, contract violation) out of the pool's exception
    machinery, so only hard process death ever breaks the pool.  The
    ``"ok"`` payload is ``(result, events)`` — the run's buffered trace
    events when ``task.trace`` is set, else ``None``.  The ``"error"``
    payload carries the attempt's *partial* event buffer as its fourth
    element, so a cell that fails permanently still leaves a trace
    through its last completed epoch instead of losing the buffer with
    the attempt.

    ``chaos`` (when armed) injects its worker-side faults — crash, hang,
    transient error — before the cell simulates, keyed deterministically
    by the cell label and the 1-based ``attempt`` number the parent
    passes, so injection decisions are identical across the spawn
    boundary and across runs.
    """
    buffer = BufferRecorder() if task.trace else None
    try:
        if chaos is not None:
            chaos.at_cell_start(task.cell.label(), attempt)
        result = _run_cell(task, recorder=buffer)
        return "ok", (result, buffer.events if buffer is not None else None)
    except BaseException as exc:  # shipped to the parent as a structured value
        return "error", (
            type(exc).__qualname__,
            str(exc),
            traceback.format_exc(),
            buffer.events if buffer is not None and buffer.events else None,
        )


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


def _run_batched(
    tasks: Sequence[CellTask],
    pending: List[int],
    keys: List[Optional[str]],
    results: List[Optional[SimulationResult]],
    store: Optional[ResultCache],
    rec: Recorder,
    metrics: CounterRegistry,
    batch: Union[bool, int],
) -> List[int]:
    """Run the batch-compatible subset of ``pending`` through the stacked
    backend; return the still-unsettled indices (fallbacks, batch errors)
    in task order for the serial/pool path.

    A group that raises is not fatal: every member is re-queued with the
    ``"batch-error"`` fallback reason and recomputed by the serial path,
    so a batching defect can cost time but never a result.
    """
    # Imported here, not at module level: repro.batch pulls in the full
    # plant + controller stack, which the engine otherwise avoids loading
    # (worker processes import this module on spawn).
    from repro.batch import batch_unsupported_reason, plan_batches, simulate_batch

    batchable: List[int] = []
    leftovers: List[int] = []
    for i in pending:
        reason = batch_unsupported_reason(tasks[i])
        if reason is None:
            batchable.append(i)
        else:
            leftovers.append(i)
            metrics.inc(f"engine.fallback.{reason}")
            if rec.enabled:
                rec.emit("cell_fallback", cell=tasks[i].cell.label(), reason=reason)
    if not batchable:
        return leftovers

    max_batch = len(batchable) if batch is True else int(batch)
    plan = plan_batches([tasks[i] for i in batchable], max_batch)
    for group_index, group in enumerate(plan):
        members = [batchable[j] for j in group]
        # Traced members record into their own buffers, replayed below in
        # task order exactly as pool workers' buffers are.
        buffers = {
            i: BufferRecorder() for i in members if tasks[i].trace and rec.enabled
        }
        try:
            group_tasks = [tasks[i] for i in members]
            if buffers:
                group_results = simulate_batch(
                    group_tasks, recorders=[buffers.get(i) for i in members]
                )
            else:
                group_results = simulate_batch(group_tasks)
        except Exception:
            # Recorded and re-queued, never swallowed: every member is
            # recomputed by the serial/pool path below.
            metrics.inc("engine.batch_errors")
            for i in members:
                metrics.inc("engine.fallback.batch-error")
                if rec.enabled:
                    rec.emit(
                        "cell_fallback",
                        cell=tasks[i].cell.label(),
                        reason="batch-error",
                    )
            leftovers.extend(members)
            continue
        metrics.inc("engine.batch_groups")
        for i, result in zip(members, group_results):
            results[i] = result
            metrics.inc("engine.cells_run")
            metrics.inc("engine.cells_batched")
            if store is not None and keys[i] is not None:
                store.put_safe(keys[i], result)
            if rec.enabled:
                if i in buffers:
                    _replay_events(rec, buffers[i].events)
                rec.emit(
                    "cell_batched",
                    cell=tasks[i].cell.label(),
                    group=group_index,
                    size=len(members),
                )
                rec.emit("cell_done", cell=tasks[i].cell.label(), attempts=1)
    leftovers.sort()
    return leftovers


def _replay_events(rec: Recorder, events: Sequence[Mapping[str, Any]]) -> None:
    """Re-emit a worker's buffered events into the parent recorder
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
        Worker process count.  ``1`` executes inline in the calling
        process (no pool; without resilience options, exceptions
        propagate unchanged).
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
        events from workers (for tasks with ``trace=True``) are shipped
        back in buffers and replayed in task order, so the trace is
        deterministic regardless of worker scheduling.
    batch:
        Route cache-missed, batch-compatible cells through the stacked
        tensor backend (:mod:`repro.batch`) before the serial/pool path.
        ``True`` stacks each compatible group whole; an integer caps the
        runs per stack.  Mixed budgets, seeds, epoch counts, fault
        campaigns, variation/hetero maps, and watchdog supervision all
        stack, traced and profiled cells included.  Cells the backend
        declines (non-default ``sensors``/``memory_system`` — see
        :func:`repro.batch.batch_unsupported_reason`) or that fail inside
        a batch fall back to the serial/pool path with a recorded
        ``cell_fallback`` reason; results are bit-identical either way.
        Batch membership never enters :func:`~repro.parallel.cache.cell_key`.
    retry_policy:
        Full control of retry behaviour: transient/deterministic error
        classification, the identical-failure cutoff, and bounded
        exponential backoff with seeded jitter (see
        :class:`~repro.parallel.retry.RetryPolicy`).
    timeout:
        Per-cell soft deadline in seconds (``jobs > 1`` only).  A cell
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
    resilient = (
        retry_policy is not None
        or timeout is not None
        or chaos is not None
        or journal is not None
    )
    report = _execute(
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
        raw_inline=(jobs == 1 and not resilient),
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
    return _execute(
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
        raw_inline=False,
    )


def _execute(
    tasks: Sequence[CellTask],
    jobs: int,
    cache: CacheLike,
    retries: int,
    recorder: Optional[Recorder],
    batch: Union[bool, int],
    retry_policy: Optional[RetryPolicy],
    timeout: Optional[float],
    chaos: Optional[ChaosPolicy],
    journal: JournalLike,
    raw_inline: bool,
) -> ExecutionReport:
    """Shared engine body behind :func:`execute_cells` /
    :func:`execute_cells_report`."""
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

        if batch and pending:
            before_batch = list(pending)
            pending = _run_batched(
                tasks, pending, keys, results, store, rec, metrics, batch
            )
            if jour is not None:
                still = set(pending)
                for i in before_batch:
                    key = keys[i]
                    if i not in still and key is not None and results[i] is not None:
                        jour.record_done(i, key)

        failures_of: Dict[int, CellFailure] = {}
        success_attempts: Dict[int, int] = {}
        event_buffers: Dict[int, Any] = {}
        #: Deferred retry-stack events per cell, emitted at settle time in
        #: task order so the trace stays deterministic when chaos is off.
        notes: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}

        if jobs == 1:
            if raw_inline:
                # Historical serial path: stream traces straight into the
                # recorder, propagate exceptions raw.
                for i in pending:
                    result = _run_cell(
                        tasks[i], recorder=rec if tasks[i].trace else None
                    )
                    results[i] = result
                    metrics.inc("engine.cells_run")
                    key = keys[i]
                    if store is not None and key is not None:
                        store.put_safe(key, result)
                    if rec.enabled:
                        rec.emit(
                            "cell_done", cell=tasks[i].cell.label(), attempts=1
                        )
                counters = _summary_counters(metrics, store, cache0)
                if rec.enabled:
                    rec.emit("engine_summary", counters=counters)
                return ExecutionReport(
                    results=tuple(results),
                    failures=(),
                    counters=counters,
                )
            _run_inline_resilient(
                tasks,
                pending,
                keys,
                results,
                store,
                jour,
                rec,
                metrics,
                policy,
                chaos,
                failures_of,
                success_attempts,
                event_buffers,
                notes,
            )
        else:
            _run_pool(
                tasks,
                pending,
                keys,
                results,
                store,
                jour,
                metrics,
                policy,
                timeout,
                chaos,
                jobs,
                failures_of,
                success_attempts,
                event_buffers,
                notes,
            )
        if store is not None:
            q_cursor = _drain_quarantine(rec, metrics, store, q_cursor)

        if rec.enabled:
            # Replay deferred notes, worker event buffers and settle-state
            # events in task order: the trace's cell sequence is then a
            # deterministic function of the task list, not of worker
            # scheduling.
            for i, task in enumerate(tasks):
                for note_type, payload in notes.get(i, []):
                    rec.emit(note_type, cell=task.cell.label(), **payload)
                events = event_buffers.get(i)
                if events:
                    _replay_events(rec, events)
                if i in success_attempts:
                    rec.emit(
                        "cell_done",
                        cell=task.cell.label(),
                        attempts=success_attempts[i],
                    )
                elif i in failures_of:
                    failure = failures_of[i]
                    rec.emit(
                        "cell_failed",
                        cell=task.cell.label(),
                        attempts=failure.attempts,
                        error_type=failure.error_type,
                    )
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


def _run_inline_resilient(
    tasks: Sequence[CellTask],
    pending: List[int],
    keys: List[Optional[str]],
    results: List[Optional[SimulationResult]],
    store: Optional[ResultCache],
    jour: Optional[CampaignJournal],
    rec: Recorder,
    metrics: CounterRegistry,
    policy: RetryPolicy,
    chaos: Optional[ChaosPolicy],
    failures_of: Dict[int, CellFailure],
    success_attempts: Dict[int, int],
    event_buffers: Dict[int, Any],
    notes: Dict[int, List[Tuple[str, Dict[str, Any]]]],
) -> None:
    """``jobs=1`` with the classified-retry machinery, scheduled by
    deadline: cells run in task order, but a cell owing backoff is
    *deferred* (per-cell ``not_before`` timestamp) while later ready
    cells execute, so a flaky cell never stalls the rest of the grid —
    the process only sleeps when every pending cell is backing off.

    Traced runs buffer per attempt; a successful attempt replaces any
    earlier partial buffer, so a retried cell never double-emits its
    epochs, while a permanently failed cell keeps its last attempt's
    partial trace through the final completed epoch."""
    queue: Deque[int] = deque(pending)
    not_before: Dict[int, float] = {i: 0.0 for i in pending}
    attempts: Dict[int, int] = {i: 0 for i in pending}
    history: Dict[int, List[Tuple[str, str]]] = {i: [] for i in pending}
    while queue:
        now = time.monotonic()
        pos = next((p for p, j in enumerate(queue) if not_before[j] <= now), None)
        if pos is None:
            # Every pending cell is backing off; sleep to the nearest
            # deadline instead of spinning.
            time.sleep(max(0.0, min(not_before[j] for j in queue) - now))
            continue
        i = queue[pos]
        del queue[pos]
        task = tasks[i]
        label = task.cell.label()
        attempts[i] += 1
        attempt = attempts[i]
        buffer = BufferRecorder() if task.trace and rec.enabled else None
        try:
            if chaos is not None:
                chaos.inline_cell_start(label, attempt)
            result = _run_cell(task, recorder=buffer)
        except Exception as exc:
            error = (type(exc).__qualname__, str(exc), traceback.format_exc())
            history[i].append((error[0], error[1]))
            if buffer is not None and buffer.events:
                # Partial trace of the failed attempt; a later successful
                # attempt overwrites it below.
                event_buffers[i] = buffer.events
            if policy.should_retry(attempt, history[i]):
                _note_retry(task, attempt, error, policy, metrics, notes, i)
                not_before[i] = time.monotonic() + policy.delay_before(
                    attempt + 1, label
                )
                queue.append(i)
                continue
            failures_of[i] = _settle_failure(
                task, attempt, error, policy, metrics, notes, i
            )
            key = keys[i]
            if jour is not None and key is not None:
                jour.record_failed(i, key, error[0], attempt)
            continue
        results[i] = result
        success_attempts[i] = attempt
        metrics.inc("engine.cells_run")
        if buffer is not None:
            if buffer.events:
                event_buffers[i] = buffer.events
            else:
                event_buffers.pop(i, None)
        key = keys[i]
        if store is not None and key is not None:
            store.put_safe(key, result)
        if jour is not None and key is not None:
            jour.record_done(i, key)


def _run_pool(
    tasks: Sequence[CellTask],
    pending: List[int],
    keys: List[Optional[str]],
    results: List[Optional[SimulationResult]],
    store: Optional[ResultCache],
    jour: Optional[CampaignJournal],
    metrics: CounterRegistry,
    policy: RetryPolicy,
    timeout: Optional[float],
    chaos: Optional[ChaosPolicy],
    jobs: int,
    failures_of: Dict[int, CellFailure],
    success_attempts: Dict[int, int],
    event_buffers: Dict[int, Any],
    notes: Dict[int, List[Tuple[str, Dict[str, Any]]]],
) -> None:
    """The pool rounds loop: submit, watch, classify, retry or settle.

    Backoff never blocks dispatch: a retried cell carries a per-cell
    ``not_before`` deadline and is *deferred* — ready cells are submitted
    immediately, deferred cells are promoted into the live pool as their
    deadlines pass, and the hung-worker watchdog keeps ticking
    throughout.  A cell in backoff therefore never stalls unrelated work
    (the backoff-stall bug: the old one-``time.sleep``-per-round design
    held every ready cell and the watchdog hostage to the longest delay
    owed by any retried member).
    """
    attempts: Dict[int, int] = {i: 0 for i in pending}
    history: Dict[int, List[Tuple[str, str]]] = {i: [] for i in pending}
    last_error: Dict[int, Tuple[str, str, str]] = {}
    #: Last failed attempt's partial event buffer per cell (pool workers
    #: ship it with the error payload); replayed only on permanent failure.
    error_events: Dict[int, Any] = {}
    not_before: Dict[int, float] = {i: 0.0 for i in pending}
    to_run = list(pending)
    while to_run:
        retry_round: List[int] = []
        requeue_free: List[int] = []
        deferred: List[int] = []
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(to_run)), mp_context=get_context("spawn")
        ) as pool:
            now = time.monotonic()
            ready = [i for i in to_run if not_before[i] <= now]
            deferred = [i for i in to_run if not_before[i] > now]
            future_of = {
                pool.submit(_run_cell_guarded, tasks[i], chaos, attempts[i] + 1): i
                for i in ready
            }
            not_done = set(future_of)
            running_since: Dict[Any, float] = {}
            broken = False
            watchdog_broke = False
            while (not_done or deferred) and not broken:
                if not not_done:
                    # Only deferred cells remain: sleep to the nearest
                    # backoff deadline, then promote below.
                    wake_in = (
                        min(not_before[i] for i in deferred) - time.monotonic()
                    )
                    if wake_in > 0:
                        time.sleep(wake_in)
                    done: Set[Any] = set()
                else:
                    # Poll when a watchdog deadline or a deferral is
                    # armed; a plain blocking wait otherwise, so neither
                    # costs anything when unused.
                    ticks: List[float] = []
                    if timeout is not None:
                        ticks.append(max(0.01, min(0.05, timeout / 5.0)))
                    if deferred:
                        wake_in = (
                            min(not_before[i] for i in deferred)
                            - time.monotonic()
                        )
                        ticks.append(max(0.01, wake_in))
                    tick = min(ticks) if ticks else None
                    done, not_done = wait(
                        not_done, timeout=tick, return_when=FIRST_COMPLETED
                    )
                for fut in done:
                    i = future_of[fut]
                    try:
                        status, payload = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        attempts[i] += 1
                        last_error[i] = (
                            "WorkerCrash",
                            "worker process died before returning a result",
                            "",
                        )
                        history[i].append((last_error[i][0], last_error[i][1]))
                        retry_round.append(i)
                        continue
                    except Exception as exc:
                        # Submission-side errors (e.g. an unpicklable lambda
                        # factory) surface here rather than in the worker;
                        # they consume an attempt like any other failure.
                        attempts[i] += 1
                        last_error[i] = (
                            type(exc).__qualname__,
                            str(exc),
                            traceback.format_exc(),
                        )
                        history[i].append((last_error[i][0], last_error[i][1]))
                        retry_round.append(i)
                        continue
                    if status == "ok":
                        result, events = payload
                        results[i] = result
                        success_attempts[i] = attempts.pop(i, 0) + 1
                        if events:
                            event_buffers[i] = events
                        error_events.pop(i, None)
                        metrics.inc("engine.cells_run")
                        key = keys[i]
                        if store is not None and key is not None:
                            store.put_safe(key, result)
                        if jour is not None and key is not None:
                            jour.record_done(i, key)
                    else:
                        attempts[i] += 1
                        last_error[i] = (payload[0], payload[1], payload[2])
                        if len(payload) > 3 and payload[3]:
                            error_events[i] = payload[3]
                        history[i].append((payload[0], payload[1]))
                        retry_round.append(i)
                # Promote deferred cells whose backoff deadlines passed
                # into the live pool.
                if deferred and not broken:
                    now = time.monotonic()
                    ripe = [i for i in deferred if not_before[i] <= now]
                    if ripe:
                        deferred = [i for i in deferred if not_before[i] > now]
                        for pos, i in enumerate(ripe):
                            try:
                                fut = pool.submit(
                                    _run_cell_guarded,
                                    tasks[i],
                                    chaos,
                                    attempts[i] + 1,
                                )
                            except BrokenProcessPool:
                                # The pool died under us: unpromoted cells
                                # keep their deadlines for the next round.
                                broken = True
                                deferred.extend(ripe[pos:])
                                break
                            future_of[fut] = i
                            not_done.add(fut)
                if broken or timeout is None or not not_done:
                    continue
                # Soft-deadline watchdog: charge stragglers, kill the pool,
                # and let the broken-pool path re-queue the innocents for
                # free (their budgets are untouched).
                now = time.monotonic()
                for fut in not_done:
                    if fut.running() and fut not in running_since:
                        running_since[fut] = now
                expired = [
                    fut
                    for fut in not_done
                    if fut in running_since
                    and now - running_since[fut] >= timeout
                ]
                if expired:
                    broken = True
                    watchdog_broke = True
                    for fut in expired:
                        i = future_of[fut]
                        attempts[i] += 1
                        last_error[i] = (
                            "CellTimeout",
                            f"cell exceeded its soft deadline of {timeout}s",
                            "",
                        )
                        history[i].append((last_error[i][0], last_error[i][1]))
                        metrics.inc("engine.timeouts")
                        notes.setdefault(i, []).append(
                            (
                                "cell_timeout",
                                {"attempt": attempts[i], "deadline": timeout},
                            )
                        )
                        retry_round.append(i)
                    not_done -= set(expired)
                    _terminate_pool_processes(pool)
            if broken:
                for fut in not_done:
                    i = future_of[fut]
                    fut.cancel()
                    if watchdog_broke:
                        # Innocent bystanders of a watchdog kill: re-queued
                        # with their attempt budgets untouched.
                        metrics.inc("engine.requeued")
                        requeue_free.append(i)
                    else:
                        # Casualties of a genuine crash: one attempt each,
                        # then resubmit to a fresh pool.
                        attempts[i] += 1
                        last_error[i] = (
                            "WorkerCrash",
                            "worker pool broke while the cell was queued/in flight",
                            "",
                        )
                        history[i].append((last_error[i][0], last_error[i][1]))
                        retry_round.append(i)

        to_run = []
        for i in retry_round:
            if policy.should_retry(attempts[i], history[i]):
                to_run.append(i)
                _note_retry(
                    tasks[i], attempts[i], last_error[i], policy, metrics, notes, i
                )
                not_before[i] = time.monotonic() + policy.delay_before(
                    attempts[i] + 1, tasks[i].cell.label()
                )
            else:
                if error_events.get(i):
                    # Permanent failure: replay the last attempt's partial
                    # trace through its final completed epoch.
                    event_buffers[i] = error_events[i]
                failures_of[i] = _settle_failure(
                    tasks[i], attempts[i], last_error[i], policy, metrics, notes, i
                )
                key = keys[i]
                if jour is not None and key is not None:
                    jour.record_failed(i, key, last_error[i][0], attempts[i])
        for i in requeue_free:
            # Watchdog innocents re-enter immediately: the requeue is not
            # a retry and owes no backoff.
            not_before[i] = 0.0
        to_run.extend(requeue_free)
        to_run.extend(deferred)
        to_run.sort()


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
