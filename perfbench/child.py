"""The measuring side of a run: one fresh process per set-up or run.

``run.py --child setup`` imports the program and sets the workload up;
``run.py --child run`` does the same and then times the units, traces
one when asked, and checks the outputs.  Either writes its outcome as
JSON into the run's temporary directory for the parent to read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from perfbench.trace import Tracer, percentile
from perfbench.workloads import Unit, Workload, instrument, layer_metrics, make_workload

__all__ = ["PeakRss", "main", "measure", "tally"]

#: Where a traced run leaves its spans, under the checkout root.
SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench" / "out"


class PeakRss:
    """Peak resident memory of this process plus its child processes.

    Reads ``VmHWM`` (the kernel's per-process high-water mark) of this
    process at the end, and of every child seen by a sampling thread
    while it was alive, and sums them.
    """

    def __init__(self, period_s: float = 0.2) -> None:
        self._period_s = period_s
        self._children: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _hwm_kb(pid: str) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except (OSError, ValueError):
            pass
        return 0

    def _child_pids(self) -> List[str]:
        pids: List[str] = []
        try:
            for task in os.listdir("/proc/self/task"):
                with open(f"/proc/self/task/{task}/children", encoding="ascii") as fh:
                    pids.extend(fh.read().split())
        except OSError:
            pass
        return pids

    def _sample(self) -> None:
        for pid in self._child_pids():
            hwm = self._hwm_kb(pid)
            if hwm > self._children.get(int(pid), 0):
                self._children[int(pid)] = hwm

    def _run(self) -> None:
        while not self._stop.wait(self._period_s):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def mb(self) -> float:
        return (self._hwm_kb("self") + sum(self._children.values())) / 1024.0


def main(args: argparse.Namespace, started: float) -> int:
    """Set up one workload; in ``run`` mode also measure and check it.
    Writes the outcome as JSON into the run's temporary directory."""
    tmp = Path(args.tmp)
    workload = make_workload(
        args.workload, args.seed, tmp / f"work-{os.getpid()}", tiny=args.tiny
    )
    workload.setup()
    out: Dict[str, Any] = {"setup_s": time.perf_counter() - started}
    if args.child == "run":
        out.update(measure(workload, args))
    with open(tmp / f"{args.child}.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def measure(workload: Workload, args: argparse.Namespace) -> Dict[str, Any]:
    """Time the units, trace one when asked, check the outputs."""
    units = []
    with PeakRss() as rss:
        start = time.perf_counter()
        while True:
            units.append(workload.run_unit())
            if args.trace or (
                len(units) >= workload.min_units
                and time.perf_counter() - start >= args.seconds
            ):
                break
            workload.prepare_unit()
    problems: List[str] = []
    metrics: Dict[str, float] = {}
    checked_unit = units[-1]
    if args.trace:
        workload.prepare_unit()
        tracer = Tracer()
        instrument(tracer, workload)
        try:
            traced = workload.run_unit(tracer)
        finally:
            tracer.unwrap_all()
        plain, seen = workload.outputs(units[-1]), workload.outputs(traced)
        problems += [
            f"{key}: traced output differs from the untraced unit's"
            for key in sorted(set(plain) | set(seen))
            if plain.get(key) != seen.get(key)
        ]
        metrics.update(layer_metrics(workload, traced, tracer, units[-1].wall_s))
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(SPANS_DIR / f"{workload.name}.spans.jsonl")
        checked_unit = traced
    else:
        latencies = [lat for unit in units for lat in unit.latencies_s]
        walls = [unit.wall_s for unit in units]
        metrics.update(
            {
                "wall_s": statistics.median(walls),
                "peak_rss_mb": rss.mb(),
                "service_cells_per_s": statistics.median(
                    unit.cells / unit.wall_s for unit in units
                ),
                "job_latency_p50_s": percentile(latencies, 50),
                "job_latency_p90_s": percentile(latencies, 90),
            }
        )
    checks, mismatches = workload.check(checked_unit)
    problems += mismatches
    odrl = checked_unit.odrl
    metrics["odrl_instructions_per_j"] = sum(ipj for _, ipj in odrl) / len(odrl)
    metrics["odrl_over_budget_energy_j"] = sum(obe for obe, _ in odrl)
    timed = units + ([checked_unit] if args.trace else [])
    attempted, failed, metrics["error_rate"] = tally(timed, problems)
    if failed > len(problems):
        problems.append(f"{failed - len(problems)} cell(s) or job(s) did not complete")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "checks": checks,
        "units": len(units),
        "samples": len(units[-1].latencies_s) * len(units),
    }


def tally(units: List[Unit], mismatches: List[str]) -> Tuple[int, int, float]:
    """``(attempted, failed, error_rate)``: cells or jobs that did not
    complete plus output mismatches, over those attempted."""
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units) + len(mismatches)
    return attempted, failed, failed / attempted
