"""Regenerate the golden-trace fixtures under ``tests/golden/``.

The golden suite pins exact controller trajectories: a small, fast grid
(16 cores, 50 epochs, mixed workload, six representative controllers)
whose every deterministic output — power, instructions, temperature,
per-core series, extras — must stay bit-for-bit stable across refactors.
``decision_time`` is wall-clock measurement noise, not simulated
behaviour, so fixtures store it zeroed and the tests exclude it.

Regenerate (only after an *intentional* behaviour change, with the diff
explained in the commit message)::

    python -m tools.regen_golden        # or: make golden

The spec constants below are imported by ``tests/golden/`` so the tests
always rebuild exactly what this tool froze.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from repro.manycore.config import default_system
from repro.sim.result_io import save_result
from repro.sim.results import SimulationResult
from repro.sim.runner import run_suite, standard_controllers
from repro.workloads.suite import mixed_workload

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_N_CORES",
    "GOLDEN_N_EPOCHS",
    "GOLDEN_SEED",
    "GOLDEN_BUDGET_FRACTION",
    "GOLDEN_CONTROLLERS",
    "GOLDEN_HARVEST_PATH",
    "golden_path",
    "compute_golden_results",
    "compute_golden_harvest_events",
    "main",
]

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
GOLDEN_N_CORES = 16
GOLDEN_N_EPOCHS = 50
GOLDEN_SEED = 0
GOLDEN_BUDGET_FRACTION = 0.6
GOLDEN_CONTROLLERS = (
    "od-rl",
    "pid",
    "static-uniform",
    "greedy-ascent",
    "steepest-drop",
    "maxbips",
)

#: Golden harvest trace: the od-rl learner's run above re-recorded with
#: ``harvest=True``, pinning the transition-event stream the offline
#: pipeline ingests (see ``tests/offline/test_conformance.py``).
GOLDEN_HARVEST_PATH = GOLDEN_DIR / "harvest-od-rl.jsonl"


def golden_path(controller: str) -> Path:
    """Fixture file for one controller's golden trace."""
    return GOLDEN_DIR / f"{controller}.npz"


def compute_golden_results(
    jobs: int = 1, cache: object = None, batch: Union[bool, int] = False
) -> Dict[str, SimulationResult]:
    """Run the golden grid and return ``{controller: result}``.

    Results carry per-core series (``record_per_core=True``) and a zeroed
    ``decision_time`` so the return value is a pure function of the spec
    constants — identical bytes on every machine and every run.
    ``batch`` routes the grid through the stacked tensor backend
    (``repro.batch``), which must reproduce the same bytes.
    """
    cfg = default_system(
        n_cores=GOLDEN_N_CORES, budget_fraction=GOLDEN_BUDGET_FRACTION
    )
    workload = mixed_workload(GOLDEN_N_CORES, seed=GOLDEN_SEED)
    lineup = standard_controllers(seed=GOLDEN_SEED)
    chosen = {name: lineup[name] for name in GOLDEN_CONTROLLERS}
    results = run_suite(
        cfg,
        {workload.name: workload},
        chosen,
        GOLDEN_N_EPOCHS,
        jobs=jobs,
        cache=cache,
        batch=batch,
        sim_kwargs={"record_per_core": True},
    )
    return {
        name: dataclasses.replace(
            results[name][workload.name],
            decision_time=np.zeros_like(results[name][workload.name].decision_time),
        )
        for name in GOLDEN_CONTROLLERS
    }


def compute_golden_harvest_events() -> List[Dict[str, Any]]:
    """Events of the golden harvest run: od-rl with ``harvest=True``.

    A standalone :class:`~repro.core.controller.ODRLController` seeded
    with ``GOLDEN_SEED`` on the golden workload — the same trajectory the
    od-rl ``.npz`` fixture freezes, plus the per-epoch transition events
    the offline pipeline ingests.  ``decision_time`` on epoch events is
    wall-clock measurement noise and is zeroed, mirroring the zeroed
    ``decision_time`` arrays in the ``.npz`` fixtures.
    """
    from repro.core.controller import ODRLController
    from repro.obs.recorder import BufferRecorder
    from repro.sim.simulator import run_controller

    cfg = default_system(
        n_cores=GOLDEN_N_CORES, budget_fraction=GOLDEN_BUDGET_FRACTION
    )
    workload = mixed_workload(GOLDEN_N_CORES, seed=GOLDEN_SEED)
    controller = ODRLController(cfg, seed=GOLDEN_SEED)
    rec = BufferRecorder()
    run_controller(
        cfg, workload, controller, GOLDEN_N_EPOCHS, recorder=rec, harvest=True
    )
    events: List[Dict[str, Any]] = []
    for event in rec.events:
        if event.get("type") == "epoch":
            event = dict(event, decision_time=0.0)
        events.append(event)
    return events


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, result in compute_golden_results().items():
        path = golden_path(name)
        save_result(result, path)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    events = compute_golden_harvest_events()
    GOLDEN_HARVEST_PATH.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events),
        encoding="utf-8",
    )
    print(
        f"wrote {GOLDEN_HARVEST_PATH} "
        f"({GOLDEN_HARVEST_PATH.stat().st_size} bytes, {len(events)} events)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
