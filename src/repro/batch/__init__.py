"""Batched tensor simulation backend: the stack planner.

Stacks N independent run cells — controller × workload × seed × budget —
into one ``(n_runs, n_cores, ...)`` stack of the simulate loop so a
single NumPy epoch step advances every run at once, with results
**bit-identical** to the serial path (the golden-trace and
``tests/batch/`` differential suites are the referee).  This package
plans the stacks (:func:`batch_unsupported_reason`, :func:`plan_batches`)
and runs one (:func:`simulate_batch`); the loop, kernel and batch
policies live in :mod:`repro.sim.simulator` and :mod:`repro.kernel`.
Exposed as the third execution backend beside serial and ``jobs=`` via
``run_suite(..., batch=True)``, ``GridOptions(batch=...)`` and the CLI
``--batch`` flag; see ``docs/batch.md`` for the stacking rules and
fallback semantics.
"""

from repro.batch.simulator import (
    batch_unsupported_reason,
    plan_batches,
    simulate_batch,
)
from repro.kernel.policies import BatchMaxBIPS, BatchODRL, PerRunPolicy

__all__ = [
    "BatchODRL",
    "BatchMaxBIPS",
    "PerRunPolicy",
    "batch_unsupported_reason",
    "plan_batches",
    "simulate_batch",
]
