"""Assert the epoch kernel's batched speedup budget on the E2-style suite.

Runs the same controller × benchmark grid through the serial ``n_runs=1``
kernel view and then through the stacked kernel (:mod:`repro.kernel` via
:mod:`repro.batch`) at increasing batch caps.  Every batched run must be
bit-identical to the serial one (``assert_trace_equal``, all cells); the
largest cap — at least 8, the scale EXPERIMENTS.md quotes — must hit the
wall-clock budget: batched suite time at most ``--threshold`` (default
0.45) of the serial suite time.

Two operating points matter.  The full E2 lineup, whose od-rl and
model-based baselines decide each stack in one call, is pinned at a
0.45x wall-clock budget.  ``od-rl`` plus ``pid`` (a cheap per-run
decide) clear 3x at batch 8; CI pins both.  ``--json`` archives the measured curve as a
``BENCH_KERNEL.json`` payload that ``tools/bench_summary.py`` renders
alongside the per-experiment bench artifacts.

Wall-clock measurement is noisy, so each leg takes the *minimum* over
``--reps`` runs after one untimed warm-up.  This lives in ``tools/``
(not the tier-1 suite) precisely because it measures the host machine::

    python -m tools.batch_overhead                    # CI budget at batch 8
    python -m tools.batch_overhead --controllers od-rl,pid --threshold 0.333
    python -m tools.batch_overhead --json benchmarks/results/BENCH_KERNEL.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.e2_overshoot import DEFAULT_BENCHMARKS, DEFAULT_CONTROLLERS
from repro.manycore.config import default_system
from repro.parallel import assert_trace_equal
from repro.sim.results import SimulationResult
from repro.sim.runner import run_suite, standard_controllers
from repro.workloads.suite import make_benchmark

__all__ = ["main", "measure_speedups", "write_report"]

SuiteResults = Dict[str, Dict[str, SimulationResult]]


def _timed_suite(
    cfg, workloads, chosen, n_epochs: int, reps: int,
    batch: Union[bool, int] = False,
) -> Tuple[float, SuiteResults]:
    """Best-of-``reps`` wall clock for one full grid run."""
    best_s = float("inf")
    results: Optional[SuiteResults] = None
    for _ in range(reps):
        t0_s = time.perf_counter()
        results = run_suite(cfg, workloads, chosen, n_epochs, batch=batch)
        best_s = min(best_s, time.perf_counter() - t0_s)
    assert results is not None
    return best_s, results


def measure_speedups(
    n_cores: int,
    n_epochs: int,
    seed: int,
    controllers: List[str],
    batch_sizes: List[int],
    reps: int,
) -> Tuple[float, Dict[int, float]]:
    """Serial suite seconds and ``{batch_cap: batched seconds}``.

    Raises ``AssertionError`` if any batched run differs from serial on
    any deterministic output of any cell.
    """
    cfg = default_system(n_cores=n_cores, budget_fraction=0.6)
    workloads = {
        b: make_benchmark(b, n_cores, seed=seed) for b in DEFAULT_BENCHMARKS
    }
    lineup = standard_controllers(seed=seed)
    chosen = {n: lineup[n] for n in controllers}

    # Untimed warm-up: imports, allocator, branch predictors.
    warmup_epochs = max(n_epochs // 10, 5)
    run_suite(cfg, workloads, chosen, warmup_epochs)
    run_suite(cfg, workloads, chosen, warmup_epochs, batch=max(batch_sizes))

    serial_s, serial = _timed_suite(cfg, workloads, chosen, n_epochs, reps)
    batched_s: Dict[int, float] = {}
    for cap in batch_sizes:
        dt_s, batched = _timed_suite(
            cfg, workloads, chosen, n_epochs, reps, batch=cap
        )
        batched_s[cap] = dt_s
        for ctrl in serial:
            for wl in serial[ctrl]:
                assert_trace_equal(
                    serial[ctrl][wl],
                    batched[ctrl][wl],
                    context=f"batch={cap}[{ctrl}][{wl}]",
                )
    return serial_s, batched_s


def write_report(
    path: Path,
    *,
    n_cores: int,
    n_epochs: int,
    reps: int,
    controllers: List[str],
    threshold: float,
    serial_s: float,
    batched_s: Dict[int, float],
) -> None:
    """Archive the measured curve as a ``bench_summary``-compatible payload."""
    largest = max(batched_s)
    payload = {
        "experiment": "KERNEL",
        "n_cores": n_cores,
        "n_epochs": n_epochs,
        "reps": reps,
        "controllers": controllers,
        "threshold": threshold,
        "wall_clock_s": serial_s + sum(batched_s.values()),
        "suite_timing": {
            "serial_s": serial_s,
            "batch_s": batched_s[largest],
            "batch_cap": largest,
            "speedup": serial_s / batched_s[largest],
        },
        "speedup_curve": {
            str(cap): serial_s / dt_s for cap, dt_s in sorted(batched_s.items())
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cores", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--controllers",
        default=",".join(DEFAULT_CONTROLLERS),
        help="comma-separated lineup subset (default: the E2 controllers)",
    )
    parser.add_argument(
        "--batch-sizes",
        default="1,2,4,8",
        help="comma-separated batch caps for the speedup curve",
    )
    parser.add_argument("--reps", type=int, default=1, help="best-of-N timing")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.45,
        help="maximum batched/serial wall-clock ratio at the largest cap "
        "(default 0.45; use 0.333 for the kernel-native >= 3x budget)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also archive the measured curve as a BENCH_KERNEL.json "
        "payload for tools.bench_summary",
    )
    args = parser.parse_args(argv)

    controllers = [c for c in args.controllers.split(",") if c]
    batch_sizes = sorted({int(b) for b in args.batch_sizes.split(",") if b})
    if not batch_sizes or batch_sizes[0] < 1:
        print("batch sizes must be positive integers", file=sys.stderr)
        return 2

    serial_s, batched_s = measure_speedups(
        args.cores, args.epochs, args.seed, controllers, batch_sizes, args.reps
    )
    if args.json is not None:
        write_report(
            args.json,
            n_cores=args.cores,
            n_epochs=args.epochs,
            reps=args.reps,
            controllers=controllers,
            threshold=args.threshold,
            serial_s=serial_s,
            batched_s=batched_s,
        )
        print(f"wrote {args.json}")
    print("determinism: every batched run is bit-identical to serial")
    print(
        f"{len(controllers)} controllers x {len(DEFAULT_BENCHMARKS)} benchmarks "
        f"@ {args.cores} cores x {args.epochs} epochs (best of {args.reps}):"
    )
    print(f"  serial     {serial_s:8.3f} s")
    for cap in batch_sizes:
        speedup = serial_s / batched_s[cap]
        print(f"  batch={cap:<3d} {batched_s[cap]:8.3f} s   ({speedup:4.2f}x)")

    largest = batch_sizes[-1]
    ratio = batched_s[largest] / serial_s
    print(
        f"  ratio at batch={largest}: {ratio:.3f} "
        f"(budget {args.threshold:.2f})"
    )
    if ratio > args.threshold:
        print("FAIL: batched suite is too slow for the budget", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
