"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 5 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced unit (see
``perfbench/README.md``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The parent process imports nothing from the program.  Set-up and the
timed units run in fresh child processes (this file again, with
``--child``), each with its own temporary directory under
``.perfbench/tmp`` that is removed afterwards.  Without the program's
sources beside this directory the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402
from perfbench.trace import tail_percentile  # noqa: E402

#: Set-up is measured this many times per run (fresh processes); the
#: median is reported.
SETUP_REPEATS = 3
#: Hard ceiling on one run, below the 180 s the contract allows.
DEADLINE_S = 170.0


def _run_child(mode: str, args: argparse.Namespace, tmp: Path, deadline: float) -> Dict[str, Any]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", mode, "--tmp", str(tmp),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    # Child output goes to stderr: standard output ends with the result.
    proc = subprocess.run(
        cmd, cwd=str(ROOT), stdout=sys.stderr, stderr=sys.stderr,
        timeout=max(1.0, deadline - time.perf_counter()), check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    result_file = tmp / f"{mode}.json"
    with open(result_file, encoding="utf-8") as fh:
        result: Dict[str, Any] = json.load(fh)
    result_file.unlink()
    return result


def _print_table(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")


def parent_main(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    tmp = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        setups: List[float] = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_run_child("setup", args, tmp, deadline)["setup_s"])
        run = _run_child("run", args, tmp, deadline)
        setups.append(run["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics: Dict[str, float] = run["metrics"]
    metrics["setup_s"] = statistics.median(setups)
    units = PER_LAYER if args.trace else END_TO_END
    tail = tail_percentile(run["samples"])
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{run['units']} timed unit(s), {run['samples']} latency samples "
        f"(highest percentile with 10 beyond: {'none' if tail is None else f'p{tail:g}'}), "
        f"{run['checks']} output checks"
    )
    for problem in run["problems"]:
        print(f"  MISMATCH {problem}")
    _print_table("metrics:", metrics, units)
    print(f"  error_rate {metrics['error_rate']:.6g} ({run['failed']} of {run['attempted']})")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.child:
        started = time.perf_counter()
        sys.path.insert(1, str(ROOT / "src"))
        # Importing the child module imports the program: set-up time.
        from perfbench import child

        return child.main(args, started)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
