"""Regression pin on the batch-compatibility gate.

The kernel refactor made watchdog supervision, process variation,
heterogeneous core maps, and ragged epoch counts batchable, and the one
simulate loop made traced and profiled cells batchable.  This module
pins that won: the standard-controller suite must produce **zero**
serial fallbacks under every supported scenario, traced or profiled,
and the set of reasons that still legitimately force the serial path
must not silently grow.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import batch_unsupported_reason, plan_batches
from repro.faults import FaultCampaign
from repro.manycore import default_system
from repro.manycore.hetero import big_little_map
from repro.manycore.variation import sample_variation
from repro.obs import BufferRecorder
from repro.parallel import CellTask, RunCell, assert_trace_equal, execute_cells
from repro.sim import standard_controllers
from repro.workloads import mixed_workload

N_CORES = 4
N_EPOCHS = 8

#: The only remaining reasons a cell may fall back to the serial path.
#: Growing this set is an intentional API decision, not a side effect.
ALLOWED_FALLBACK_REASONS = frozenset(
    {
        "faults-instance",
        "sim_kwargs:sensors",
        "sim_kwargs:memory_system",
        "batch-error",
    }
)

#: Upper bound on serial fallbacks for the standard-controller suite
#: across all batchable scenarios.  The refactor drove this to zero;
#: any regression (a scenario quietly losing batch support) fails here.
MAX_FALLBACKS = 0

CFG = default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)
WORKLOAD = mixed_workload(N_CORES, seed=0)

SCENARIO_KWARGS = {
    "clean": {},
    "faults": {
        "faults": FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.2, seed=2),
    },
    "watchdog": {
        "faults": FaultCampaign.random(
            N_CORES, N_EPOCHS, rate=0.2, seed=2, n_crashes=1
        ),
        "watchdog": True,
        "checkpoint_period": 3,
    },
    "variation": {
        "variation": sample_variation(
            default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6),
            rng=np.random.default_rng(4),
        ),
    },
    "hetero": {"hetero": big_little_map(N_CORES)},
}


#: Epoch counts of the ragged stack: one stack per controller, three rows.
RAGGED_EPOCHS = (N_EPOCHS // 2, N_EPOCHS, N_EPOCHS - 2)

#: Wall-clock event fields (and the recorder's sequence number), dropped
#: before comparing a stacked cell's event stream with its serial one.
WALL_CLOCK_FIELDS = ("seq", "decision_time", "phases", "timing")


def _suite_tasks(sim_kwargs, epochs=(N_EPOCHS,), trace=False, profile=False):
    tasks = []
    for name, factory in sorted(standard_controllers(seed=0).items()):
        for n_epochs in epochs:
            cell = RunCell(
                controller=name,
                workload=WORKLOAD.name,
                budget=None,
                seed=0,
                n_epochs=n_epochs,
            )
            tasks.append(
                CellTask(
                    cell, CFG, WORKLOAD, factory, dict(sim_kwargs),
                    trace=trace, profile=profile,
                )
            )
    return tasks


def _run_streams(events):
    """Each cell's run events (everything but engine lifecycle events),
    keyed by the ``cell_done`` that closes them, wall-clock fields dropped."""
    streams, current = {}, []
    for event in events:
        if event["type"] == "cell_done":
            streams[event["cell"]] = current
            current = []
        elif not event["type"].startswith("cell_") and event["type"] != "engine_summary":
            current.append(
                {k: v for k, v in event.items() if k not in WALL_CLOCK_FIELDS}
            )
    return streams


class TestFallbackRegression:
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_KWARGS))
    def test_gate_accepts_standard_suite(self, scenario):
        reasons = [
            batch_unsupported_reason(task)
            for task in _suite_tasks(SCENARIO_KWARGS[scenario])
        ]
        assert reasons.count(None) == len(reasons), reasons

    def test_fallback_count_at_most_pinned(self):
        fallbacks = []
        for scenario, kwargs in sorted(SCENARIO_KWARGS.items()):
            tasks = _suite_tasks(kwargs)
            serial = execute_cells(tasks, jobs=1)
            rec = BufferRecorder()
            batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
            # The newly-batchable scenarios must also stay bit-identical.
            for task, a, b in zip(tasks, serial, batched):
                assert_trace_equal(
                    a, b, context=f"{scenario}[{task.cell.controller}]"
                )
            fallbacks.extend(
                (scenario, e["cell"], e["reason"])
                for e in rec.events
                if e["type"] == "cell_fallback"
            )
        assert len(fallbacks) <= MAX_FALLBACKS, fallbacks

    @pytest.mark.parametrize("observe", ["trace", "profile"])
    @pytest.mark.parametrize("scenario", [*sorted(SCENARIO_KWARGS), "ragged"])
    def test_observed_stacks_match_serial(self, scenario, observe):
        epochs = RAGGED_EPOCHS if scenario == "ragged" else (N_EPOCHS,)
        tasks = _suite_tasks(
            SCENARIO_KWARGS.get(scenario, {}),
            epochs=epochs,
            trace=observe == "trace",
            profile=observe == "profile",
        )
        serial_rec = BufferRecorder()
        serial = execute_cells(tasks, jobs=1, recorder=serial_rec)
        rec = BufferRecorder()
        batched = execute_cells(tasks, jobs=1, batch=True, recorder=rec)
        assert [e for e in rec.events if e["type"] == "cell_fallback"] == []
        for task, a, b in zip(tasks, serial, batched):
            assert_trace_equal(a, b, context=f"{scenario}[{task.cell.label()}]")
            if observe == "profile":
                assert "timing" in a.extras and "timing" in b.extras
        serial_streams = _run_streams(serial_rec.events)
        batched_streams = _run_streams(rec.events)
        assert set(batched_streams) == {task.cell.label() for task in tasks}
        for task in tasks:
            label = task.cell.label()
            assert batched_streams[label] == serial_streams[label], label
            if observe == "trace":
                run_end = batched_streams[label][-1]
                assert run_end["type"] == "run_end"
                assert run_end["n_epochs"] == task.cell.n_epochs

    def test_remaining_reasons_are_the_allowed_set(self, tmp_path):
        lineup = standard_controllers(seed=0)
        declining = [
            CellTask(
                RunCell(
                    controller="sensors", workload=WORKLOAD.name, budget=None,
                    seed=0, n_epochs=N_EPOCHS,
                ),
                CFG, WORKLOAD, lineup["pid"], {"sensors": object()},
            ),
            CellTask(
                RunCell(
                    controller="memory", workload=WORKLOAD.name, budget=None,
                    seed=0, n_epochs=N_EPOCHS,
                ),
                CFG, WORKLOAD, lineup["pid"], {"memory_system": object()},
            ),
        ]
        batchable = [
            CellTask(
                RunCell(
                    controller="trace", workload=WORKLOAD.name, budget=None,
                    seed=0, n_epochs=N_EPOCHS,
                ),
                CFG, WORKLOAD, lineup["pid"], {}, trace=True,
            ),
            CellTask(
                RunCell(
                    controller="profile", workload=WORKLOAD.name, budget=None,
                    seed=0, n_epochs=N_EPOCHS,
                ),
                CFG, WORKLOAD, lineup["pid"], {}, profile=True,
            ),
        ]
        for task in batchable:
            assert batch_unsupported_reason(task) is None
        for task in declining:
            reason = batch_unsupported_reason(task)
            assert reason is not None
            assert f"{reason}" in ALLOWED_FALLBACK_REASONS or reason.startswith(
                "sim_kwargs:"
            )

    def test_watchdog_and_plant_options_join_batch_groups(self):
        # The headline win: scenarios that used to be PerRunPolicy-only
        # *fallbacks* (serial path) now plan into real batch groups.
        for scenario in ("watchdog", "variation", "hetero"):
            tasks = [
                _suite_tasks(SCENARIO_KWARGS[scenario])[0] for _ in range(3)
            ]
            assert plan_batches(tasks, 8) == [[0, 1, 2]], scenario
