"""The benchmark's four workloads, driven through the program's public API.

Each workload builds its inputs from the run seed (:func:`derive_seeds`),
runs one *unit* of work per timed repetition, and checks a sample of
the unit's outputs against the serial library path outside the timed
region.  With a :class:`~perfbench.trace.Tracer`, a unit runs with
span-recording wrappers swapped onto the layers' public calls
(:func:`instrument`) and a root span around the whole unit.

Importing this module imports the program, so the import is part of
the measured set-up time.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import pickle
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.batch
import repro.service.scheduler
import repro.service.service
import repro.sim.simulator
import repro.workloads.suite
from repro.batch import BatchMaxBIPS, BatchODRL, PerRunPolicy
from repro.core import ODRLController
from repro.experiments.e2_overshoot import DEFAULT_BENCHMARKS, DEFAULT_CONTROLLERS
from repro.kernel.epoch import EpochKernel
from repro.manycore import ManyCoreChip, default_system, peak_chip_power
from repro.metrics.perf_metrics import energy_efficiency
from repro.metrics.power_metrics import over_budget_energy
from repro.obs import JsonlRecorder
from repro.obs.summarize import read_events_tolerant
from repro.offline import (
    build_buffer,
    harvest,
    policy_from_training,
    save_offline_policy,
    train,
)
from repro.parallel import ResultCache, cell_key, execute_cells
from repro.service import ExperimentService, JobSpec, plan_job, result_digest
from repro.service.events import EventHub
from repro.service.scheduler import ContinuousScheduler
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    build_suite_tasks,
    build_sweep_tasks,
    run_budget_sweep,
    run_suite,
    standard_controllers,
)
from repro.sim.simulator import run_controller
from repro.workloads import make_benchmark, mixed_workload

from perfbench.metrics import BENCH_LAYER, DECIDE_CONTROLLERS, LAYERS
from perfbench.trace import Span, Tracer, percentile, self_times

__all__ = [
    "WORKLOADS",
    "Unit",
    "Workload",
    "derive_seeds",
    "instrument",
    "layer_metrics",
    "make_workload",
]

#: Input streams derived from the run seed, in spawn order.
SEED_STREAMS = ("traces", "lineup", "jobs", "harvest", "order", "sample")

def derive_seeds(seed: int) -> Dict[str, int]:
    """One independent non-negative 31-bit seed per input stream."""
    children = np.random.SeedSequence(seed).spawn(len(SEED_STREAMS))
    return {
        name: int(child.generate_state(1)[0] >> 1)
        for name, child in zip(SEED_STREAMS, children)
    }


@dataclass
class Unit:
    """What one timed repetition produced."""

    wall_s: float
    #: cells (or jobs, for the service) the unit attempted
    attempted: int
    #: cells delivered; on the service every job's cells
    cells: int
    #: submit-to-done latency per job; a library call delivers every
    #: cell when it returns, so there each cell waits the whole call
    latencies_s: List[float]
    #: (over-budget energy J, instructions per J) of every od-rl cell
    odrl: List[Tuple[float, float]] = field(default_factory=list)
    #: cells the layers simulated (cache misses) — the batch fallback base
    executed: int = 0
    #: attempted cells or jobs that did not complete
    failed: int = 0
    #: workload-specific outputs the check and the layer metrics read
    extra: Dict[str, Any] = field(default_factory=dict)


def _odrl_pair(result: SimulationResult) -> Tuple[float, float]:
    return over_budget_energy(result), energy_efficiency(result)


@contextlib.contextmanager
def _root(tracer: Optional[Tracer]) -> Iterator[None]:
    """The root span of a traced unit: the benchmark's own layer, whose
    self time is the traced wall no program call covers."""
    if tracer is None:
        yield
    else:
        with tracer.root("bench.unit", BENCH_LAYER):
            yield


@contextlib.contextmanager
def _span(tracer: Optional[Tracer], name: str, layer: str) -> Iterator[None]:
    if tracer is None:
        yield
    else:
        with tracer.span(name, layer):
            yield


def _digest_mismatch(label: str, got: SimulationResult, want: SimulationResult) -> List[str]:
    if result_digest(got) == result_digest(want):
        return []
    return [f"{label}: result_digest differs from the serial run"]


class Workload:
    """Base class: inputs from the seed, a timed unit, an output check."""

    name = ""
    #: Timed units per run at least, however short ``--seconds`` is.
    min_units = 1

    def __init__(self, seed: int, tmp: Path, tiny: bool = False) -> None:
        self.seeds = derive_seeds(seed)
        self.tmp = tmp
        self.tiny = tiny
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def sample_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seeds["sample"])

    def lineup(self, names: Sequence[str]) -> Dict[str, Any]:
        full = standard_controllers(seed=self.seeds["lineup"])
        return {name: full[name] for name in names}

    # -- subclass interface ------------------------------------------------
    def setup(self) -> None:
        """Generate inputs and build the lineup (timed as set-up)."""

    def prepare_unit(self) -> None:
        """Untimed preparation before every unit after the first."""

    def run_unit(self, tracer: Optional[Tracer] = None) -> Unit:
        raise NotImplementedError

    def check(self, unit: Unit) -> Tuple[int, List[str]]:
        """``(checks made, mismatch messages)`` for ``unit``'s outputs."""
        raise NotImplementedError

    def engine_tasks(self) -> List[Any]:
        """The engine tasks of one unit (empty when the engine is unused)."""
        return []

    def outputs(self, unit: Unit) -> Dict[str, str]:
        """Digest of every output of ``unit``; a traced unit must match
        the untraced one exactly."""
        return {
            f"{ctrl}/{key}": result_digest(result)
            for (ctrl, key), result in unit.extra["results"].items()
        }

    def extra_metrics(self, unit: Unit, tracer: Tracer) -> Dict[str, float]:
        return {}


class PaperGrid(Workload):
    """The E2 lineup x the 6 E2 benchmarks at 64 cores x 300 epochs,
    through ``run_suite(jobs=2, batch=True, cache=<fresh dir>)``: the
    decide-bound paper grid, with stack planning and cache writes."""

    name = "paper-grid"
    n_cores, n_epochs, jobs = 64, 300, 2

    def setup(self) -> None:
        benchmarks = DEFAULT_BENCHMARKS
        if self.tiny:
            self.n_cores, self.n_epochs, benchmarks = 8, 12, benchmarks[:2]
        self.cfg = default_system(n_cores=self.n_cores, budget_fraction=0.6)
        self.workloads = {
            b: make_benchmark(b, self.n_cores, seed=self.seeds["traces"])
            for b in benchmarks
        }
        self.controllers = self.lineup(DEFAULT_CONTROLLERS)

    def engine_tasks(self) -> List[Any]:
        return build_suite_tasks(
            self.cfg, self.workloads, self.controllers, self.n_epochs
        )[1]

    def run_unit(self, tracer: Optional[Tracer] = None) -> Unit:
        cache_dir = self.fresh_dir("cache")
        store = ResultCache(cache_dir)
        t0 = time.perf_counter()
        with _root(tracer), _span(tracer, "engine.run_suite", "engine"):
            results = run_suite(
                self.cfg, self.workloads, self.controllers, self.n_epochs,
                jobs=self.jobs, batch=True, cache=store,
            )
        wall = time.perf_counter() - t0
        flat = {(c, b): results[c][b] for c in results for b in results[c]}
        return Unit(
            wall_s=wall,
            attempted=len(flat),
            cells=len(flat),
            latencies_s=[wall] * len(flat),
            odrl=[_odrl_pair(r) for (c, _), r in flat.items() if c == "od-rl"],
            executed=store.misses,
            extra={"results": flat, "cache_dir": cache_dir, "store": store},
        )

    def check(self, unit: Unit) -> Tuple[int, List[str]]:
        rng = self.sample_rng()
        names = list(self.workloads)
        tasks = {
            (t.cell.controller, t.cell.workload): t for t in self.engine_tasks()
        }
        reread = ResultCache(unit.extra["cache_dir"])
        problems: List[str] = []
        checks = 0
        for ctrl in self.controllers:
            bench = names[int(rng.integers(len(names)))]
            got = unit.extra["results"][(ctrl, bench)]
            want = run_controller(
                self.cfg, self.workloads[bench], self.controllers[ctrl](self.cfg),
                self.n_epochs,
            )
            problems += _digest_mismatch(f"{ctrl}/{bench}", got, want)
            task = tasks[(ctrl, bench)]
            cached = reread.get(
                cell_key(task.cell, task.cfg, task.workload, task.factory, task.sim_kwargs)
            )
            if cached is None:
                problems.append(f"{ctrl}/{bench}: missing from the cache")
            else:
                problems += _digest_mismatch(f"{ctrl}/{bench} (cached)", cached, want)
            checks += 2
        return checks, problems


class StackedSweep(Workload):
    """od-rl and pid x 32 budgets on ``mixed`` at 256 cores x 600 epochs,
    in two 32-run stacks with no pool and no cache: the vectorized od-rl
    decide and the stacked plant step dominate, and no engine or
    heuristic-decide change should move it."""

    name = "stacked-sweep"
    n_cores, n_epochs, n_budgets = 256, 600, 32
    names = ("od-rl", "pid")

    def setup(self) -> None:
        if self.tiny:
            self.n_cores, self.n_epochs, self.n_budgets = 8, 12, 4
        self.cfg = default_system(n_cores=self.n_cores, budget_fraction=0.6)
        fractions = np.linspace(0.4, 0.9, self.n_budgets)
        order = np.random.default_rng(self.seeds["order"]).permutation(self.n_budgets)
        peak_w = peak_chip_power(self.cfg)
        self.budgets = [float(fractions[i] * peak_w) for i in order]
        self.workload = mixed_workload(self.n_cores, seed=self.seeds["traces"])
        self.controllers = self.lineup(self.names)

    def engine_tasks(self) -> List[Any]:
        return build_sweep_tasks(
            self.cfg, self.budgets, self.workload, self.controllers, self.n_epochs
        )[1]

    def run_unit(self, tracer: Optional[Tracer] = None) -> Unit:
        t0 = time.perf_counter()
        with _root(tracer), _span(tracer, "engine.run_budget_sweep", "engine"):
            results = run_budget_sweep(
                self.cfg, self.budgets, self.workload, self.controllers,
                self.n_epochs, batch=True,
            )
        wall = time.perf_counter() - t0
        flat = {(c, b): results[c][b] for c in results for b in results[c]}
        return Unit(
            wall_s=wall,
            attempted=len(flat),
            cells=len(flat),
            latencies_s=[wall] * len(flat),
            odrl=[_odrl_pair(r) for (c, _), r in flat.items() if c == "od-rl"],
            executed=len(flat),
            extra={"results": flat},
        )

    def check(self, unit: Unit) -> Tuple[int, List[str]]:
        rng = self.sample_rng()
        problems: List[str] = []
        for ctrl in self.controllers:
            budget = self.budgets[int(rng.integers(len(self.budgets)))]
            cfg = self.cfg.with_budget(budget)
            want = run_controller(
                cfg, self.workload, self.controllers[ctrl](cfg), self.n_epochs
            )
            problems += _digest_mismatch(
                f"{ctrl}@{budget:.2f}W", unit.extra["results"][(ctrl, budget)], want
            )
        return len(self.controllers), problems


class ServiceHalfwarm(Workload):
    """2 closed-loop clients against one in-process service with a disk
    cache pre-warmed with the even-indexed of 120 distinct small suite
    jobs: per-cell overhead, cache reads beside cache writes, and queue
    wait are a visible share, and no dedup can hide work."""

    name = "service-halfwarm"
    #: Latency percentiles pool the jobs of both units; wall and
    #: throughput are their median.
    min_units = 2
    n_jobs, n_clients, n_cores, n_epochs = 120, 2, 16, 100
    names = ("od-rl", "pid", "greedy-ascent")
    benchmark = "barnes"
    sample_jobs = 4

    def setup(self) -> None:
        if self.tiny:
            self.n_jobs, self.n_cores, self.n_epochs = 6, 4, 8
        base = self.seeds["jobs"]
        self.specs = [
            JobSpec(
                kind="suite",
                controllers=self.names,
                benchmarks=(self.benchmark,),
                n_cores=self.n_cores,
                n_epochs=self.n_epochs,
                seed=base + i,
            )
            for i in range(self.n_jobs)
        ]
        self.warm_dir = self.fresh_dir("warm")
        tasks = [
            task
            for i in range(0, self.n_jobs, 2)
            for task in plan_job(self.specs[i]).tasks
        ]
        execute_cells(tasks, cache=ResultCache(self.warm_dir), batch=True)
        self.prepare_unit()

    def prepare_unit(self) -> None:
        """A fresh copy of the pre-warmed cache (the even-indexed jobs'
        cells): a unit writes the odd jobs' cells into its cache."""
        self.cache_dir = self.fresh_dir("cache")
        shutil.copytree(self.warm_dir, self.cache_dir, dirs_exist_ok=True)

    def engine_tasks(self) -> List[Any]:
        return [t for spec in self.specs[:20] for t in plan_job(spec).tasks]

    def run_unit(self, tracer: Optional[Tracer] = None) -> Unit:
        store = ResultCache(self.cache_dir)
        return asyncio.run(self._closed_loop(store, tracer))

    async def _closed_loop(self, store: ResultCache, tracer: Optional[Tracer]) -> Unit:
        service = ExperimentService(cache=store)
        await service.start()
        pending = iter(range(self.n_jobs))
        jobs: Dict[int, Dict[str, Any]] = {}

        async def first_cell_start(job_id: str) -> Optional[float]:
            async for event in service.events(job_id):
                if event["type"] == "cell_start":
                    return time.perf_counter()
            return None

        async def client(k: int) -> None:
            for i in pending:
                t_submit = time.perf_counter()
                job_id = await service.submit(self.specs[i], client=f"client-{k}")
                watch = (
                    asyncio.ensure_future(first_cell_start(job_id)) if tracer else None
                )
                status = await service.wait(job_id)
                t_done = time.perf_counter()
                jobs[i] = {
                    "id": job_id,
                    "state": status["state"],
                    "latency_s": t_done - t_submit,
                    "submit": t_submit,
                    "done": t_done,
                    "start": await watch if watch is not None else None,
                }

        try:
            t0 = time.perf_counter()
            with _root(tracer):
                await asyncio.gather(*(client(k) for k in range(self.n_clients)))
            wall = time.perf_counter() - t0
            counters = service.counters()
            results = {
                i: service.results(job["id"])
                for i, job in jobs.items()
                if job["state"] == "done"
            }
        finally:
            await service.stop()
        odrl = [
            _odrl_pair(merged["od-rl"][self.benchmark]) for merged in results.values()
        ]
        return Unit(
            wall_s=wall,
            attempted=self.n_jobs,
            cells=sum(spec.cell_count() for spec in self.specs),
            latencies_s=[job["latency_s"] for job in jobs.values()],
            odrl=odrl,
            executed=store.misses,
            failed=self.n_jobs - len(results),
            extra={
                "jobs": jobs,
                "results": results,
                "counters": counters,
                "store": store,
            },
        )

    def check(self, unit: Unit) -> Tuple[int, List[str]]:
        problems: List[str] = []
        rng = self.sample_rng()
        picks = sorted(
            set(int(i) for i in rng.choice(self.n_jobs, self.sample_jobs, replace=False))
        )
        for i in picks:
            spec = self.specs[i]
            merged = unit.extra["results"].get(i)
            if merged is None:
                continue
            cfg = default_system(n_cores=spec.n_cores, budget_fraction=spec.budget_fraction)
            full = standard_controllers(seed=spec.seed)
            workload = make_benchmark(self.benchmark, spec.n_cores, seed=spec.seed)
            library = run_suite(
                cfg, {workload.name: workload},
                {name: full[name] for name in spec.controllers}, spec.n_epochs,
            )
            for ctrl in spec.controllers:
                problems += _digest_mismatch(
                    f"job {i} {ctrl}",
                    merged[ctrl][workload.name],
                    library[ctrl][workload.name],
                )
        return len(picks) * len(self.names), problems

    def outputs(self, unit: Unit) -> Dict[str, str]:
        return {
            f"job {i} {ctrl}": result_digest(result)
            for i, merged in unit.extra["results"].items()
            for ctrl, by_bench in merged.items()
            for result in by_bench.values()
        }

    def extra_metrics(self, unit: Unit, tracer: Tracer) -> Dict[str, float]:
        jobs = [job for job in unit.extra["jobs"].values() if job["start"] is not None]
        counters = unit.extra["counters"]
        rounds = counters.get("service.rounds", 0)
        return {
            "service.queue_wait_p50_s": percentile(
                [job["start"] - job["submit"] for job in jobs], 50
            ) if jobs else 0.0,
            "service.run_p50_s": percentile(
                [job["done"] - job["start"] for job in jobs], 50
            ) if jobs else 0.0,
            "service.round_cells_mean": (
                counters.get("service.cells_enqueued", 0) / rounds if rounds else 0.0
            ),
        }


class HarvestTrain(Workload):
    """``repro.offline.harvest`` (od-rl at 64 cores x 1200 epochs x 4
    benchmarks x 2 seeds), then ``build_buffer``, ``train("fqi")`` and
    ``save_offline_policy``: the only workload with tracing on and the
    only user of ``offline``."""

    name = "harvest-train"
    n_cores, n_epochs = 64, 1200
    benchmarks: Tuple[str, ...] = ("barnes", "ocean", "fft", "canneal")
    names = ("od-rl",)

    def setup(self) -> None:
        if self.tiny:
            self.n_cores, self.n_epochs, self.benchmarks = 4, 10, ("barnes",)
        self.cfg = default_system(n_cores=self.n_cores, budget_fraction=0.6)
        base = self.seeds["harvest"]
        self.harvest_seeds = (base, base + 1)

    def run_unit(self, tracer: Optional[Tracer] = None) -> Unit:
        out = self.fresh_dir("harvest")
        t0 = time.perf_counter()
        with _root(tracer):
            with _span(tracer, "offline.harvest", "offline"):
                paths = harvest(
                    out, n_cores=self.n_cores, n_epochs=self.n_epochs,
                    benchmarks=self.benchmarks, seeds=self.harvest_seeds,
                )
            with _span(tracer, "offline.build_buffer", "offline"):
                buffer = build_buffer(paths)
            with _span(tracer, "offline.train", "offline"):
                trained = train(buffer, "fqi", seed=self.seeds["harvest"])
            with _span(tracer, "offline.save_policy", "offline"):
                save_offline_policy(
                    policy_from_training(trained, self.cfg), out / "policy.npz"
                )
        wall = time.perf_counter() - t0
        cells = len(paths)
        return Unit(
            wall_s=wall,
            attempted=cells,
            cells=cells,
            latencies_s=[wall] * cells,
            odrl=[self._odrl_from_trace(p) for p in paths],
            executed=cells,
            extra={
                "paths": paths,
                "digest": buffer.digest,
                "transitions": len(buffer),
            },
        )

    def _odrl_from_trace(self, path: Path) -> Tuple[float, float]:
        """(over-budget energy J, instructions per J) of one harvested run,
        read back from its trace."""
        events, _torn = read_events_tolerant(str(path))
        power = np.array([e["chip_power"] for e in events if e["type"] == "epoch"])
        end = next(e for e in events if e["type"] == "run_end")
        over = np.maximum(power - self.cfg.power_budget, 0.0)
        return (
            float(np.sum(over)) * self.cfg.epoch_time,
            end["total_instructions"] / end["total_energy_j"],
        )

    def check(self, unit: Unit) -> Tuple[int, List[str]]:
        problems: List[str] = []
        if build_buffer(unit.extra["paths"]).digest != unit.extra["digest"]:
            problems.append("rebuilt replay buffer digest differs")
        rng = self.sample_rng()
        name = self.benchmarks[int(rng.integers(len(self.benchmarks)))]
        seed = self.harvest_seeds[int(rng.integers(len(self.harvest_seeds)))]
        path = next(
            p for p in unit.extra["paths"] if p.name == f"harvest-{name}-s{seed}.jsonl"
        )
        events, _torn = read_events_tolerant(str(path))
        traced = np.array([e["chip_power"] for e in events if e["type"] == "epoch"])
        serial = run_controller(
            self.cfg, make_benchmark(name, self.n_cores, seed=seed),
            ODRLController(self.cfg, seed=seed), self.n_epochs,
        )
        if not np.array_equal(traced, serial.chip_power):
            problems.append(f"{path.name}: traced chip power differs from the serial run")
        return 2, problems

    def outputs(self, unit: Unit) -> Dict[str, str]:
        """Per trace file, a digest of its events without the wall-clock
        ``decision_time`` field; plus the replay buffer digest."""
        files: Dict[str, str] = {"buffer": unit.extra["digest"]}
        for path in unit.extra["paths"]:
            events, _torn = read_events_tolerant(str(path))
            digest = hashlib.sha256()
            for event in events:
                event.pop("decision_time", None)
                digest.update(json.dumps(event, sort_keys=True).encode())
            files[path.name] = digest.hexdigest()
        return files

    def extra_metrics(self, unit: Unit, tracer: Tracer) -> Dict[str, float]:
        obs_self = sum(
            own for s, own in zip(tracer.spans, self_times(tracer.spans))
            if s.layer == "obs"
        )
        events = sum(1 for s in tracer.spans if s.name == "obs.emit")
        by_name = _durations(tracer.spans)
        return {
            "obs.events": float(events),
            "obs.bytes": float(sum(p.stat().st_size for p in unit.extra["paths"])),
            "obs.emit_us_per_event": 1e6 * obs_self / events if events else 0.0,
            "offline.build_buffer_s": by_name.get("offline.build_buffer", 0.0),
            "offline.train_s": by_name.get("offline.train", 0.0),
            "offline.transitions": float(unit.extra["transitions"]),
        }


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PaperGrid, StackedSweep, ServiceHalfwarm, HarvestTrain)
}


def make_workload(name: str, seed: int, tmp: Path, tiny: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload: Workload = WORKLOADS[name](seed, tmp, tiny)
    return workload


# -- instrumentation ---------------------------------------------------------
def _decide_owner(cls: type) -> type:
    """The class in ``cls``'s MRO whose ``decide`` an instance runs."""
    return next(k for k in cls.__mro__ if "decide" in k.__dict__)


def instrument(tracer: Tracer, workload: Workload) -> None:
    """Swap span-recording wrappers onto the public calls of every layer."""
    cfg = default_system(n_cores=4, budget_fraction=0.6)
    lineup = standard_controllers(seed=0)
    ctrl_names: Dict[type, str] = {}
    for name in DECIDE_CONTROLLERS:
        ctrl_names[type(lineup[name](cfg))] = name

    def ctrl_label(ctrl: Any) -> str:
        inner = getattr(ctrl, "inner", ctrl)
        return ctrl_names.get(type(inner), type(inner).__name__)

    def decide_units(args: Tuple[Any, ...], kwargs: Dict[str, Any], parent: Optional[Span]) -> int:
        # A serial decide called by a per-run batch policy is already
        # counted by the policy's span.
        return 0 if parent is not None and parent.layer == "decide" else 1

    def row_units(args: Tuple[Any, ...], kwargs: Dict[str, Any], parent: Optional[Span]) -> int:
        # Stacked kernel steps and batch decides advance their active rows.
        active = kwargs.get("active", args[2] if len(args) > 2 else None)
        return args[0].n_runs if active is None else int(np.count_nonzero(active))

    def tasks_units(args: Tuple[Any, ...], kwargs: Dict[str, Any], parent: Optional[Span]) -> int:
        return len(args[0])

    tracer.wrap(EpochKernel, "step", "plant", "plant.kernel_step", row_units)
    tracer.wrap(ManyCoreChip, "step", "plant", "plant.chip_step")
    for owner in {_decide_owner(cls) for cls in ctrl_names}:
        tracer.wrap(
            owner, "decide", "decide",
            lambda args: f"decide.{ctrl_label(args[0])}", decide_units,
        )
    for policy in (PerRunPolicy, BatchODRL, BatchMaxBIPS):
        tracer.wrap(
            policy, "decide", "decide",
            lambda args: f"decide.{ctrl_label(args[0].controllers[0])}", row_units,
        )
    tracer.wrap(repro.sim.simulator, "simulate", "sim", "sim.simulate")
    for attr in ("make_benchmark", "mixed_workload"):
        tracer.wrap(repro.workloads.suite, attr, "workloads", f"workloads.{attr}")
    for attr in ("emit", "flush"):
        tracer.wrap(JsonlRecorder, attr, "obs", f"obs.{attr}")
    for attr in ("get", "put"):
        tracer.wrap(ResultCache, attr, "cache", f"cache.{attr}")
    tracer.wrap(repro.batch, "simulate_batch", "batch", "batch.simulate_batch", tasks_units)
    tracer.wrap(repro.batch, "plan_batches", "batch", "batch.plan")
    tracer.wrap(repro.service.service, "plan_job", "service", "service.plan_job")
    tracer.wrap(ContinuousScheduler, "enqueue_job", "service", "service.enqueue_job")
    tracer.wrap(EventHub, "publish", "service", "service.publish")
    tracer.wrap(
        repro.service.scheduler, "execute_cells_report", "engine",
        "engine.execute_cells_report", tasks_units,
    )


# -- per-layer metrics -------------------------------------------------------
def _durations(spans: Sequence[Span]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.duration
    return out


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _engine_microbench(tasks: Sequence[Any]) -> Dict[str, float]:
    """Mean cost of keying and pickling one of the workload's tasks."""
    key_s: List[float] = []
    pickle_s: List[float] = []
    size: List[int] = []
    for task in tasks:
        t0 = time.perf_counter()
        cell_key(task.cell, task.cfg, task.workload, task.factory, task.sim_kwargs)
        t1 = time.perf_counter()
        blob = pickle.dumps(task)
        t2 = time.perf_counter()
        key_s.append(t1 - t0)
        pickle_s.append(t2 - t1)
        size.append(len(blob))
    return {
        "engine.cell_key_ms": 1e3 * _mean(key_s),
        "engine.task_pickle_ms": 1e3 * _mean(pickle_s),
        "engine.task_pickle_kb": _mean([s / 1024 for s in size]),
    }


def layer_metrics(
    workload: Workload, unit: Unit, tracer: Tracer, untraced_wall_s: float
) -> Dict[str, float]:
    """Every per-layer metric for one traced unit (0 where a layer is
    not on the workload's path)."""
    spans = tracer.spans
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in (*LAYERS, BENCH_LAYER)}
    name_self: Dict[str, float] = {}
    name_units: Dict[str, int] = {}
    name_count: Dict[str, int] = {}
    for span, own in zip(spans, selfs):
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + own
        name_self[span.name] = name_self.get(span.name, 0.0) + own
        name_units[span.name] = name_units.get(span.name, 0) + span.units
        name_count[span.name] = name_count.get(span.name, 0) + 1
    run_epochs = name_units.get("plant.kernel_step", 0)

    def per_run_epoch_us(seconds: float) -> float:
        return 1e6 * seconds / run_epochs if run_epochs else 0.0

    metrics: Dict[str, float] = {}
    for ctrl in DECIDE_CONTROLLERS:
        name = f"decide.{ctrl}"
        units = name_units.get(name, 0)
        metrics[f"{name}.us_per_run_epoch"] = (
            1e6 * name_self.get(name, 0.0) / units if units else 0.0
        )
    metrics["plant.step_us_per_run_epoch"] = per_run_epoch_us(layer_self["plant"])
    metrics["sim.loop_us_per_run_epoch"] = per_run_epoch_us(
        name_self.get("sim.simulate", 0.0) + name_self.get("batch.simulate_batch", 0.0)
    )
    metrics["sim.run_epochs"] = float(run_epochs)

    stacks = name_count.get("batch.simulate_batch", 0)
    batched = name_units.get("batch.simulate_batch", 0)
    metrics["batch.stacks"] = float(stacks)
    metrics["batch.mean_stack_size"] = batched / stacks if stacks else 0.0
    metrics["batch.fallbacks"] = float(unit.executed - batched) if stacks else 0.0

    engine = [s for s in spans if s.layer == "engine"]
    if engine:
        engine_ids = {id(s) for s in engine}
        work = sum(
            s.duration
            for s in spans
            if s.name in ("batch.simulate_batch", "sim.simulate")
            and s.parent is not None
            and id(s.parent) in engine_ids
        )
        metrics["engine.overhead_ms_per_cell"] = (
            1e3 * (sum(s.duration for s in engine) - work) / unit.cells
        )
    else:
        metrics["engine.overhead_ms_per_cell"] = 0.0
    metrics.update(_engine_microbench(workload.engine_tasks()))

    gets = [s.duration for s in spans if s.name == "cache.get"]
    puts = [s.duration for s in spans if s.name == "cache.put"]
    store = unit.extra.get("store")
    lookups = store.hits + store.misses if store is not None else 0
    metrics["cache.get_ms"] = 1e3 * _mean(gets)
    metrics["cache.put_ms"] = 1e3 * _mean(puts)
    metrics["cache.hit_ratio"] = store.hits / lookups if lookups else 0.0

    plans = [s.duration for s in spans if s.name == "service.plan_job"]
    metrics["service.plan_ms"] = 1e3 * _mean(plans)
    metrics.update(
        {
            "service.round_cells_mean": 0.0,
            "service.queue_wait_p50_s": 0.0,
            "service.run_p50_s": 0.0,
            "obs.events": 0.0,
            "obs.bytes": 0.0,
            "obs.emit_us_per_event": 0.0,
            "offline.build_buffer_s": 0.0,
            "offline.train_s": 0.0,
            "offline.transitions": 0.0,
        }
    )
    metrics.update(workload.extra_metrics(unit, tracer))

    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = layer_self[layer]
    root = next(span for span in spans if span.layer == BENCH_LAYER)
    metrics["trace.remainder_frac"] = layer_self[BENCH_LAYER] / root.duration
    metrics["trace.overhead_frac"] = unit.wall_s / untraced_wall_s - 1.0
    return metrics
