"""Names and units of the benchmark's metrics (standard library only).

The parent process reads these without importing the program.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "BENCH_LAYER",
    "DECIDE_CONTROLLERS",
    "END_TO_END",
    "LAYERS",
    "PER_LAYER",
    "WORKLOAD_NAMES",
]

WORKLOAD_NAMES: Tuple[str, ...] = (
    "paper-grid",
    "stacked-sweep",
    "service-halfwarm",
    "harvest-train",
)

#: Layers the spans are grouped into (the program's module groups).
LAYERS: Tuple[str, ...] = (
    "workloads",
    "plant",
    "decide",
    "sim",
    "batch",
    "engine",
    "cache",
    "service",
    "obs",
    "offline",
)

#: Layer of each traced unit's root span: time no program call covers
#: (the benchmark's own code, the service clients and the event loop).
#: Its self time is ``trace.remainder_frac``, not a ``self.<layer>_s`` row.
BENCH_LAYER = "bench"

#: Controllers whose decide cost is reported, in lineup order.
DECIDE_CONTROLLERS: Tuple[str, ...] = (
    "od-rl",
    "pid",
    "greedy-ascent",
    "steepest-drop",
    "maxbips",
)

#: End-to-end metric -> unit (reported with ``--trace 0``).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "service_cells_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "odrl_instructions_per_j": "1/J",
}

#: Per-layer metric -> unit (reported with ``--trace 1``).
PER_LAYER: Dict[str, str] = {
    **{f"decide.{c}.us_per_run_epoch": "us" for c in DECIDE_CONTROLLERS},
    "plant.step_us_per_run_epoch": "us",
    "sim.loop_us_per_run_epoch": "us",
    "sim.run_epochs": "count",
    "batch.stacks": "count",
    "batch.mean_stack_size": "count",
    "batch.fallbacks": "count",
    "engine.overhead_ms_per_cell": "ms",
    "engine.cell_key_ms": "ms",
    "engine.task_pickle_ms": "ms",
    "engine.task_pickle_kb": "KiB",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hit_ratio": "ratio",
    "service.plan_ms": "ms",
    "service.round_cells_mean": "count",
    "service.queue_wait_p50_s": "s",
    "service.run_p50_s": "s",
    "obs.events": "count",
    "obs.bytes": "B",
    "obs.emit_us_per_event": "us",
    "offline.build_buffer_s": "s",
    "offline.train_s": "s",
    "offline.transitions": "count",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.remainder_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "error_rate": "ratio",
    "odrl_over_budget_energy_j": "J",
}
