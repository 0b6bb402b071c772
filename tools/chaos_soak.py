"""End-to-end chaos drill for the hardened execution layer.

Four phases, each proving one robustness contract at a scale the unit
tests don't reach (see ``docs/robustness.md``)::

    python -m tools.chaos_soak                 # CI drill (~30 s)
    python -m tools.chaos_soak --cores 16 --epochs 2000   # heavier soak

1. **Golden run** — the grid, serial, no chaos.  Every later phase is
   compared bit-for-bit against these results.
2. **Storm** — the same grid under a seeded :class:`ChaosPolicy` storm
   (worker crashes, transient IPC faults, cache corruption, disk-full)
   with a real retry budget and ``jobs=2``.  Must terminate, every cell
   must succeed, results must be bit-identical to golden, and every
   quarantined cache entry must be one the storm actually corrupted
   (zero false positives).
3. **Kill-and-resume** — a child process runs the campaign with a
   journal and is ``SIGKILL``-ed mid-flight.  Resuming from the journal
   must complete only the missing cells (cache-hit accounting proves
   it) and end bit-identical to golden.  The leg runs twice: cell by
   cell, and with ``batch=True``, where the kill lands after the first
   stack and the journal must hold exactly the cells the cache holds.
4. **Chaos off** — the resilient engine with no chaos policy must be
   bit-identical to the plain engine (hardening is free when unused).

The drill drives the public surface only (``execute_cells_report``,
``ResultCache``, ``CampaignJournal``) — no test hooks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import List, Optional

from repro.batch import plan_batches
from repro.manycore.config import default_system
from repro.obs import BufferRecorder
from repro.parallel import (
    CellTask,
    ChaosPolicy,
    ResultCache,
    RetryPolicy,
    RunCell,
    assert_trace_equal,
    execute_cells,
    execute_cells_report,
)
from repro.sim.runner import _construct_controller
from repro.workloads.suite import mixed_workload

__all__ = ["main", "drill_grid"]

#: Cheap deterministic controllers, cycled across the grid so the drill
#: covers more than one decision path without paying for RL training.
_CONTROLLERS = [
    ("static-uniform", "repro.baselines.StaticUniformController"),
    ("pid", "repro.baselines.PIDCappingController"),
    ("greedy-ascent", "repro.baselines.GreedyAscentController"),
]


def drill_grid(n_cores: int, n_epochs: int, n_cells: int, seed: int) -> List[CellTask]:
    """``n_cells`` distinct cacheable cells (controller × budget grid).

    A pure function of its arguments, so the kill-and-resume child
    process rebuilds the identical campaign (same cell keys, same
    campaign id) from the command line alone.
    """
    workload = mixed_workload(n_cores, seed=seed)
    tasks = []
    for i in range(n_cells):
        name, cls_path = _CONTROLLERS[i % len(_CONTROLLERS)]
        fraction = 0.4 + 0.4 * i / max(n_cells - 1, 1)
        cfg = default_system(n_cores=n_cores, budget_fraction=fraction)
        cell = RunCell(
            controller=name,
            workload=workload.name,
            budget=float(cfg.power_budget),
            seed=seed,
            n_epochs=n_epochs,
        )
        tasks.append(CellTask(cell, cfg, workload, partial(_construct_controller, cls_path)))
    return tasks


def _journal_done_count(journal: Path) -> int:
    """Completed-cell records in a (possibly torn) journal file."""
    if not journal.exists():
        return 0
    done = 0
    for line in journal.read_text(encoding="utf-8", errors="replace").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail
        if record.get("kind") == "cell_done":
            done += 1
    return done


def _phase_storm(args: argparse.Namespace, tmp: Path, golden) -> None:
    tasks = drill_grid(args.cores, args.epochs, args.cells, args.seed)
    chaos = ChaosPolicy(
        seed=args.seed,
        crash_rate=0.2,
        hang_rate=0.0,
        transient_rate=0.25,
        cache_corrupt_rate=0.3,
        cache_truncate_rate=0.3,
        disk_full_rate=0.3,
        max_attempt=2,
    )
    policy = RetryPolicy(retries=5, base_delay=0.01, max_delay=0.05, jitter=0.5,
                         seed=args.seed)
    cache = ResultCache(tmp / "storm-cache")
    report = execute_cells_report(
        tasks, jobs=2, cache=cache, chaos=chaos, retry_policy=policy
    )
    if not report.ok:
        raise SystemExit(
            f"FAIL storm: {len(report.failures)} cells lost despite the "
            f"retry budget: {report.failures[0]}"
        )
    for got, want in zip(report.completed(), golden):
        assert_trace_equal(got, want, context="storm vs golden")
    # Sweep the store: corruptions the run never re-read are caught here.
    cache.verify()
    injected = chaos.cache_injections()
    if cache.quarantined > injected:
        raise SystemExit(
            f"FAIL storm: {cache.quarantined} quarantines but only "
            f"{injected} injected corruptions (false positives)"
        )
    print(
        f"  storm: {len(tasks)} cells ok under "
        f"{dict(chaos.counts) or 'no faults'}; "
        f"{cache.quarantined}/{injected} injected corruptions quarantined, "
        "0 false positives"
    )


def _phase_kill_resume(
    args: argparse.Namespace, tmp: Path, golden, batch: bool
) -> None:
    tasks = drill_grid(args.cores, args.epochs, args.cells, args.seed)
    leg = "batched kill+resume" if batch else "kill+resume"
    cache_dir = tmp / ("drill-cache-batch" if batch else "drill-cache")
    journal = tmp / ("campaign-batch.jsonl" if batch else "campaign.jsonl")
    child_argv = [
        sys.executable, "-m", "tools.chaos_soak", "--drill-child",
        "--cores", str(args.cores), "--epochs", str(args.epochs),
        "--cells", str(args.cells), "--seed", str(args.seed),
        "--cache-dir", str(cache_dir), "--journal", str(journal),
    ] + (["--batch"] if batch else [])
    child = subprocess.Popen(child_argv, cwd=str(Path(__file__).resolve().parents[1]))
    # Batched, the child settles a whole stack at once: wait for the
    # first stack, so the kill lands while the second one simulates.
    min_done = (
        len(plan_batches(tasks, len(tasks))[0]) if batch else max(2, args.cells // 6)
    )
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if _journal_done_count(journal) >= min_done or child.poll() is not None:
            break
        time.sleep(0.005)
    child.kill()
    child.wait(timeout=30)
    done_at_kill = _journal_done_count(journal)
    if done_at_kill >= args.cells:
        raise SystemExit(
            f"FAIL {leg}: child finished before the kill landed; "
            "raise --epochs so cells outlive the polling loop"
        )
    if done_at_kill < min_done:
        raise SystemExit(
            f"FAIL {leg}: only {done_at_kill} cells completed before "
            f"the kill (wanted >= {min_done}); raise --cells or --epochs"
        )
    if batch and done_at_kill != len(ResultCache(cache_dir)):
        raise SystemExit(
            f"FAIL {leg}: journal holds {done_at_kill} done cells but the "
            f"cache holds {len(ResultCache(cache_dir))}: stacked cells must "
            "be journaled as they settle"
        )

    rec = BufferRecorder()
    report = execute_cells_report(
        tasks, jobs=1, cache=cache_dir, journal=journal, recorder=rec,
        batch=batch,
    )
    if not report.ok:
        raise SystemExit(f"FAIL {leg}: resume failed: {report.failures[0]}")
    if report.resumed != done_at_kill:
        raise SystemExit(
            f"FAIL {leg}: journal said {done_at_kill} done but the "
            f"engine resumed {report.resumed}"
        )
    # Every journal-done cell must come back as a cache hit, not a re-run
    # (a SIGKILL between cache put and journal append can only add hits).
    cached = report.counters.get("engine.cells_cached", 0)
    run = report.counters.get("engine.cells_run", 0)
    if cached < done_at_kill or cached + run != args.cells:
        raise SystemExit(
            f"FAIL {leg}: cache-hit accounting is off "
            f"(cached={cached} run={run} done_at_kill={done_at_kill})"
        )
    resumes = [e for e in rec.events if e["type"] == "campaign_resume"]
    if len(resumes) != 1 or resumes[0]["completed"] != report.resumed:
        raise SystemExit(f"FAIL {leg}: bad campaign_resume events: {resumes}")
    for got, want in zip(report.completed(), golden):
        assert_trace_equal(got, want, context=f"{leg} vs golden")
    print(
        f"  {leg}: SIGKILL after {done_at_kill}/{args.cells} cells; "
        f"resume served {cached} from cache, recomputed {run}, "
        "bit-identical to golden"
    )


def _phase_chaos_off(args: argparse.Namespace, golden) -> None:
    tasks = drill_grid(args.cores, args.epochs, args.cells, args.seed)
    hardened = execute_cells(
        tasks, jobs=1, retry_policy=RetryPolicy(retries=1)
    )
    for got, want in zip(hardened, golden):
        assert_trace_equal(got, want, context="chaos off vs golden")
    print("  chaos off: resilient engine bit-identical to the plain engine")


def _run_child(args: argparse.Namespace) -> int:
    """Drill child: run the campaign until the parent kills us."""
    tasks = drill_grid(args.cores, args.epochs, args.cells, args.seed)
    report = execute_cells_report(
        tasks, jobs=1, cache=args.cache_dir, journal=args.journal,
        batch=args.batch,
    )
    return 0 if report.ok else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=1000)
    parser.add_argument("--cells", type=int, default=18)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--keep", metavar="DIR", default=None,
        help="keep the drill's cache/journal artifacts under DIR",
    )
    # Internal: the kill-and-resume child re-enters here.
    parser.add_argument("--drill-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--journal", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--batch", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.drill_child:
        return _run_child(args)

    tmp = Path(args.keep) if args.keep else Path(tempfile.mkdtemp(prefix="chaos-soak-"))
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        t0_s = time.perf_counter()
        tasks = drill_grid(args.cores, args.epochs, args.cells, args.seed)
        golden = execute_cells(tasks, jobs=1)
        print(f"  golden: {len(tasks)} cells @ {args.cores} cores x {args.epochs} epochs")
        _phase_storm(args, tmp, golden)
        _phase_kill_resume(args, tmp, golden, batch=False)
        _phase_kill_resume(args, tmp, golden, batch=True)
        _phase_chaos_off(args, golden)
        print(f"OK ({time.perf_counter() - t0_s:.1f} s)")
        return 0
    finally:
        if not args.keep:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
