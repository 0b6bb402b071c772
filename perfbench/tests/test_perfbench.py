"""Self-tests of the benchmark: percentiles, error accounting, span self
time, and a tiny-size smoke run of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402
from perfbench.trace import (  # noqa: E402
    Span,
    Tracer,
    percentile,
    self_times,
    tail_percentile,
    union_length,
)


# -- percentile rule ---------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # even the median has only 9 samples beyond it
        (20, 50.0),
        (40, 75.0),
        (99, 75.0),  # p90 is rank 90: 9 beyond
        (100, 90.0),  # p90 is rank 90: exactly 10 beyond
        (120, 90.0),  # the service's 120 jobs: p90 has 12 beyond, p95 only 6
        (200, 95.0),
        (1000, 99.0),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n: int, expected: object) -> None:
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank() -> None:
    values = [float(v) for v in range(1, 121)]
    assert percentile(values, 50) == 60.0
    assert percentile(values, 90) == 108.0
    assert len([v for v in values if v > percentile(values, 90)]) == 12
    assert percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- error accounting ----------------------------------------------------------
def test_forced_digest_mismatch_counts_as_failure(tmp_path: Path) -> None:
    from perfbench.child import tally
    from perfbench.workloads import make_workload

    workload = make_workload("stacked-sweep", 0, tmp_path, tiny=True)
    workload.setup()
    unit = workload.run_unit()
    checks, mismatches = workload.check(unit)
    assert checks > 0 and mismatches == []
    assert tally([unit], mismatches) == (unit.attempted, 0, 0.0)

    # Rotate every od-rl result one budget along: whichever budget the
    # check samples now holds another run's trajectory.
    results = unit.extra["results"]
    keys = [key for key in results if key[0] == "od-rl"]
    rotated = [results[key] for key in keys[1:] + keys[:1]]
    for key, result in zip(keys, rotated):
        results[key] = result
    _checks, mismatches = workload.check(unit)
    assert len(mismatches) == 1 and "od-rl" in mismatches[0]
    attempted, failed, rate = tally([unit], mismatches)
    assert (attempted, failed) == (unit.attempted, 1)
    assert rate == pytest.approx(1 / unit.attempted)


def test_incomplete_jobs_count_as_failures() -> None:
    from perfbench.child import tally
    from perfbench.workloads import Unit

    unit = Unit(wall_s=1.0, attempted=10, cells=10, latencies_s=[1.0], failed=2)
    assert tally([unit, unit], ["x"]) == (20, 5, 0.25)


# -- span self time ----------------------------------------------------------
def _span(name: str, start: float, end: float, parent: "Span | None") -> Span:
    span = Span(name, "test", start, parent)
    span.end = end
    return span


def test_union_length_merges_overlaps_and_gaps() -> None:
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.5, 3.6)]) == 3.0
    assert union_length([(2.0, 1.0)]) == 0.0


def test_self_time_with_nested_and_overlapping_children() -> None:
    root = _span("root", 0.0, 10.0, None)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 3.0, 6.0, root)  # overlaps a (another thread)
    c = _span("c", 8.0, 12.0, root)  # runs past the parent's end
    a1 = _span("a1", 2.0, 3.0, a)  # nested one level deeper
    spans = [root, a, b, c, a1]
    own = dict(zip((s.name for s in spans), self_times(spans)))
    # root: 10 minus the union [1, 6] + [8, 10] = 3
    assert own == {"root": 3.0, "a": 2.0, "b": 3.0, "c": 4.0, "a1": 1.0}


def test_tracer_wraps_and_restores_a_method() -> None:
    class Plant:
        def step(self, n: int) -> int:
            return n + 1

    original = Plant.__dict__["step"]
    tracer = Tracer()
    tracer.wrap(Plant, "step", "plant", "plant.step", lambda a, k, p: a[1])
    with tracer.root("unit", "bench"):
        assert Plant().step(3) == 4
    tracer.unwrap_all()
    assert Plant.__dict__["step"] is original
    root, step = tracer.spans
    assert (step.name, step.layer, step.units, step.parent) == ("plant.step", "plant", 3, root)
    assert sum(self_times(tracer.spans)) == pytest.approx(root.duration)


# -- smoke runs --------------------------------------------------------------
def _run(args: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload: str, trace: int) -> None:
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    # The program layers' self times plus the root's (the remainder) add
    # up to the traced wall; service worker threads may overlap.
    spans = [
        json.loads(line)
        for line in (ROOT / ".perfbench" / "out" / f"{workload}.spans.jsonl")
        .read_text().splitlines()
    ]
    root = spans[0]
    assert (root["name"], root["layer"], root["parent"]) == ("bench.unit", "bench", None)
    wall = root["end_s"] - root["start_s"]
    metrics = result["metrics"]
    assert metrics["trace.remainder_frac"]["value"] == pytest.approx(root["self_s"] / wall)
    layers = sum(v["value"] for k, v in metrics.items() if k.startswith("self."))
    if workload == "service-halfwarm":
        assert layers + root["self_s"] >= wall * (1 - 1e-9)
    else:
        assert layers + root["self_s"] == pytest.approx(wall, rel=1e-9)


def test_run_without_the_program_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(
        ["--workload", "paper-grid", "--seed", "0", "--seconds", "1", "--trace", "0"],
        tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
