"""In-process chaos soak: a seeded storm over a real grid must terminate,
produce bit-identical results for every succeeded cell, and report zero
quarantine false positives.  (The full campaign drill, including the
kill-and-resume of a live process, lives in ``tools/chaos_soak.py`` and
runs under ``make chaos``.)"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import BufferRecorder
from repro.parallel import (
    ChaosPolicy,
    ResultCache,
    RetryPolicy,
    assert_trace_equal,
    execute_cells,
    execute_cells_report,
)

from tests.chaos.helpers import small_grid
from tests.parallel.helpers import flaky_midrun


def storm_policy(seed: int) -> ChaosPolicy:
    # Cache-fault rates are high so even a 6-cell grid reliably draws
    # some injections (the zero-false-positive assertion needs teeth).
    return ChaosPolicy(
        seed=seed,
        crash_rate=0.25,
        transient_rate=0.25,
        cache_corrupt_rate=0.5,
        cache_truncate_rate=0.4,
        disk_full_rate=0.4,
        max_attempt=2,
    )


RETRY = RetryPolicy(retries=5, base_delay=0.0, max_delay=0.0, jitter=0.0)


class TestSoak:
    @pytest.mark.parametrize("batch", [False, True])
    def test_storm_terminates_and_results_are_bit_identical(self, tmp_path, batch):
        # With batch=True the stacks run in the parent under the inline
        # transient faults; the cells of a failed stack, like every
        # unstacked cell, run in the pool under worker faults.
        tasks = small_grid(6)
        golden = execute_cells(tasks, jobs=1)

        chaos = storm_policy(seed=42)
        cache = ResultCache(tmp_path / "cache")
        rec = BufferRecorder()
        report = execute_cells_report(
            tasks, jobs=2, cache=cache, chaos=chaos, retry_policy=RETRY,
            recorder=rec, batch=batch,
        )
        # With max_attempt=2 < the retry budget, every cell eventually gets
        # a clean attempt: the storm may not cost a single result.
        assert report.ok
        for got, want in zip(report.completed(), golden):
            assert_trace_equal(got, want)

        # Zero quarantine false positives: every quarantined entry must be
        # one the chaos policy actually corrupted.
        assert cache.quarantined <= chaos.cache_injections()

        # The storm must actually have bitten (otherwise this test proves
        # nothing) — cache faults are parent-side, so counts are visible.
        assert chaos.cache_injections() > 0
        if batch:
            stacks = report.counters.get("engine.batch_groups", 0)
            assert stacks + report.counters.get("engine.batch_errors", 0) > 0

    def test_storm_is_reproducible(self, tmp_path):
        # Same seed, same grid: the parent-side injection schedule repeats
        # exactly (worker-side decisions are pure hashes of the same sites).
        tasks = small_grid(4)
        counts = []
        for run in range(2):
            chaos = storm_policy(seed=7)
            cache = ResultCache(tmp_path / f"cache-{run}", chaos=chaos)
            report = execute_cells_report(
                tasks, jobs=1, cache=cache, chaos=chaos, retry_policy=RETRY
            )
            assert report.ok
            counts.append(dict(chaos.counts))
        assert counts[0] == counts[1]

    def test_chaos_disabled_is_todays_behaviour(self, tmp_path):
        # chaos=None must leave the engine bit-identical to the pre-chaos
        # code path — same results, same counter keys.
        tasks = small_grid(3)
        plain = execute_cells(tasks, jobs=1, cache=tmp_path / "a")
        hardened = execute_cells(
            tasks, jobs=1, cache=tmp_path / "b",
            retry_policy=RetryPolicy(retries=1),
        )
        for got, want in zip(hardened, plain):
            assert_trace_equal(got, want)


class TestTraceReplayUnderRetry:
    def test_retried_cell_never_double_emits_epochs(self, tmp_path):
        # A traced cell that fails *mid-run* (after emitting epochs into
        # its attempt buffer) and succeeds on retry must replay only the
        # successful attempt's events — exactly n_epochs epoch records.
        from functools import partial

        tasks = small_grid(1)
        task = dataclasses.replace(
            tasks[0],
            factory=partial(
                flaky_midrun,
                sentinel_path=str(tmp_path / "tries"),
                fail_after=2,
            ),
            trace=True,
        )
        rec = BufferRecorder()
        (result,) = execute_cells(
            [task], jobs=2, retry_policy=RETRY, recorder=rec
        )
        epochs = [e for e in rec.events if e["type"] == "epoch"]
        assert len(epochs) == result.n_epochs
        retries = [e for e in rec.events if e["type"] == "cell_retry"]
        assert len(retries) == 1
        done = [e for e in rec.events if e["type"] == "cell_done"]
        assert done[0]["attempts"] == 2

    def test_inline_retried_trace_buffers_per_attempt(self, tmp_path):
        from functools import partial

        tasks = small_grid(1)
        task = dataclasses.replace(
            tasks[0],
            factory=partial(
                flaky_midrun,
                sentinel_path=str(tmp_path / "tries"),
                fail_after=2,
            ),
            trace=True,
        )
        rec = BufferRecorder()
        (result,) = execute_cells(
            [task], jobs=1, retry_policy=RETRY, recorder=rec
        )
        epochs = [e for e in rec.events if e["type"] == "epoch"]
        assert len(epochs) == result.n_epochs
