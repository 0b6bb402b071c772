"""Engine behaviour: crash retry, structured failures, inline execution.

Uses the sentinel-file factories from :mod:`tests.parallel.helpers`
(spawn-importable module-level functions) to inject worker deaths and
in-cell exceptions deterministically.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.manycore import default_system
from repro.parallel import (
    CellTask,
    ParallelExecutionError,
    RetryPolicy,
    RunCell,
    execute_cells,
    execute_cells_report,
)
from repro.workloads import mixed_workload

from tests.parallel import helpers

N_CORES = 4
N_EPOCHS = 5


@pytest.fixture(scope="module")
def cfg():
    return default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)


@pytest.fixture(scope="module")
def workload():
    return mixed_workload(N_CORES, seed=0)


def make_task(cfg, workload, factory, name="cell"):
    cell = RunCell(
        controller=name, workload=workload.name, budget=None, seed=0,
        n_epochs=N_EPOCHS,
    )
    return CellTask(cell, cfg, workload, factory)


class TestInlineExecution:
    def test_jobs_one_runs_without_pool(self, cfg, workload):
        task = make_task(cfg, workload, helpers.build_static)
        (result,) = execute_cells([task], jobs=1)
        assert result.n_epochs == N_EPOCHS

    def test_jobs_one_propagates_raw_exception(self, cfg, workload):
        # jobs=1 runs through the same retry loop as the pool: a cell
        # error comes back as a structured failure, not a raw exception,
        # and a deterministic one fails after a single attempt.
        task = make_task(cfg, workload, helpers.always_raise)
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=1)
        (failure,) = excinfo.value.failures
        assert failure.error_type == "ValueError"
        assert failure.classification == "deterministic"
        assert failure.attempts == 1
        assert failure.message == "deliberate factory failure"
        assert "deliberate factory failure" in failure.traceback_text

    def test_rejects_invalid_jobs(self, cfg, workload):
        task = make_task(cfg, workload, helpers.build_static)
        with pytest.raises(ValueError, match="jobs"):
            execute_cells([task], jobs=0)

    def test_rejects_negative_retries(self, cfg, workload):
        task = make_task(cfg, workload, helpers.build_static)
        with pytest.raises(ValueError, match="retries"):
            execute_cells([task], retries=-1)


class TestCrashRecovery:
    def test_worker_crash_is_retried_and_succeeds(self, cfg, workload, tmp_path):
        factory = partial(
            helpers.crash_once, sentinel_path=str(tmp_path / "sentinel")
        )
        task = make_task(cfg, workload, factory)
        (result,) = execute_cells([task], jobs=2)
        assert result.n_epochs == N_EPOCHS
        assert (tmp_path / "sentinel").exists()

    def test_persistent_crash_becomes_structured_failure(self, cfg, workload):
        task = make_task(cfg, workload, helpers.always_crash, name="crasher")
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retries=1)
        (failure,) = excinfo.value.failures
        assert failure.cell.controller == "crasher"
        assert failure.error_type == "WorkerCrash"
        assert failure.attempts == 2

    def test_innocent_cell_survives_a_pool_crash(self, cfg, workload, tmp_path):
        # The crashing cell takes the pool down; the healthy cell may be
        # queued or in flight at that moment, but must still complete on
        # the rebuilt pool.
        crash = partial(
            helpers.crash_once, sentinel_path=str(tmp_path / "sentinel")
        )
        tasks = [
            make_task(cfg, workload, crash, name="crasher"),
            make_task(cfg, workload, helpers.build_static, name="healthy"),
        ]
        results = execute_cells(tasks, jobs=2)
        assert len(results) == 2
        assert all(r.n_epochs == N_EPOCHS for r in results)


class TestStructuredFailures:
    def test_worker_exception_ships_back_as_values(self, cfg, workload):
        task = make_task(cfg, workload, helpers.always_raise, name="raiser")
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retries=0)
        (failure,) = excinfo.value.failures
        assert failure.error_type == "ValueError"
        assert "deliberate factory failure" in failure.message
        assert "always_raise" in failure.traceback_text
        assert failure.attempts == 1

    def test_deterministic_exceptions_fail_fast(self, cfg, workload):
        # A ValueError reproduces identically on every attempt; granting
        # it the retry budget only wastes attempts.  One attempt, classified.
        task = make_task(cfg, workload, helpers.always_raise)
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retries=2)
        (failure,) = excinfo.value.failures
        assert failure.attempts == 1
        assert failure.classification == "deterministic"

    def test_one_bad_cell_does_not_hide_good_results_error(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.build_static, name="good"),
            make_task(cfg, workload, helpers.always_raise, name="bad"),
        ]
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells(tasks, jobs=2, retries=0)
        assert [f.cell.controller for f in excinfo.value.failures] == ["bad"]

    def test_unpicklable_factory_fails_structurally(self, cfg, workload):
        task = make_task(cfg, workload, lambda c: None, name="lambda")
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retries=0)
        (failure,) = excinfo.value.failures
        assert failure.cell.controller == "lambda"

    def test_error_message_lists_every_failed_cell(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.always_raise, name=f"bad-{i}")
            for i in range(2)
        ]
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells(tasks, jobs=2, retries=0)
        message = str(excinfo.value)
        assert "bad-0" in message and "bad-1" in message


class TestClassifiedRetry:
    def test_repeated_pool_deaths_are_survived(self, cfg, workload, tmp_path):
        # Two consecutive crashes, two pool rebuilds, success on the third
        # attempt — crash containment must hold across *repeated* deaths.
        factory = partial(
            helpers.crash_n_times, sentinel_dir=str(tmp_path / "marks"), n=2
        )
        task = make_task(cfg, workload, factory)
        (result,) = execute_cells([task], jobs=2, retries=2)
        assert result.n_epochs == N_EPOCHS
        assert len(list((tmp_path / "marks").glob("crash-*"))) == 2

    def test_transient_exception_is_retried(self, cfg, workload, tmp_path):
        factory = partial(
            helpers.transient_then_succeed,
            sentinel_path=str(tmp_path / "tries"),
        )
        task = make_task(cfg, workload, factory)
        (result,) = execute_cells([task], jobs=2, retries=2)
        assert result.n_epochs == N_EPOCHS
        assert (tmp_path / "tries").read_text() == "2"

    def test_identical_failure_twice_is_not_retried_a_third_time(
        self, cfg, workload, tmp_path
    ):
        # Transient-classified, generous budget — but the second verbatim
        # repeat proves the error deterministic in disguise.
        factory = partial(
            helpers.flaky_identical_raise,
            sentinel_path=str(tmp_path / "tries"),
        )
        task = make_task(cfg, workload, factory)
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retries=5)
        (failure,) = excinfo.value.failures
        assert failure.attempts == 2
        assert (tmp_path / "tries").read_text() == "2"

    def test_custom_policy_overrides_retries_argument(self, cfg, workload):
        task = make_task(cfg, workload, helpers.always_crash)
        policy = RetryPolicy(retries=0, base_delay=0.0, max_delay=0.0, jitter=0.0)
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retries=5, retry_policy=policy)
        assert excinfo.value.failures[0].attempts == 1

    def test_inline_retry_with_policy(self, cfg, workload, tmp_path):
        # jobs=1 with an explicit policy opts into the classified-retry
        # machinery instead of raw propagation.
        factory = partial(
            helpers.transient_then_succeed,
            sentinel_path=str(tmp_path / "tries"),
        )
        task = make_task(cfg, workload, factory)
        policy = RetryPolicy(retries=2, base_delay=0.0, max_delay=0.0, jitter=0.0)
        (result,) = execute_cells([task], jobs=1, retry_policy=policy)
        assert result.n_epochs == N_EPOCHS
        assert (tmp_path / "tries").read_text() == "2"


class TestWatchdog:
    def test_straggler_is_cancelled_and_retried(self, cfg, workload, tmp_path):
        factory = partial(
            helpers.hang_once,
            sentinel_path=str(tmp_path / "sentinel"),
            seconds=60.0,
        )
        task = make_task(cfg, workload, factory)
        # The deadline clock includes worker spawn/import time (~1-2s in
        # CI), so the soft deadline must sit comfortably above it.
        (result,) = execute_cells([task], jobs=2, retries=1, timeout=5.0)
        assert result.n_epochs == N_EPOCHS
        assert (tmp_path / "sentinel").exists()

    def test_persistent_straggler_fails_with_timeout_type(
        self, cfg, workload, tmp_path
    ):
        factory = partial(
            helpers.hang_once,
            sentinel_path=str(tmp_path / "sentinel"),
            seconds=60.0,
        )
        task = make_task(cfg, workload, factory, name="straggler")
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_cells([task], jobs=2, retries=0, timeout=3.0)
        (failure,) = excinfo.value.failures
        assert failure.error_type == "CellTimeout"
        assert failure.classification == "transient"

    def test_innocent_cells_survive_a_watchdog_kill(
        self, cfg, workload, tmp_path
    ):
        # The hung cell trips the watchdog; healthy cells sharing the pool
        # must still complete (re-queued without losing budget).
        hang = partial(
            helpers.hang_once,
            sentinel_path=str(tmp_path / "sentinel"),
            seconds=60.0,
        )
        tasks = [
            make_task(cfg, workload, hang, name="straggler"),
            make_task(cfg, workload, helpers.build_static, name="healthy-0"),
            make_task(cfg, workload, helpers.build_static, name="healthy-1"),
        ]
        results = execute_cells(tasks, jobs=2, retries=1, timeout=5.0)
        assert len(results) == 3
        assert all(r.n_epochs == N_EPOCHS for r in results)

    def test_rejects_nonpositive_timeout(self, cfg, workload):
        task = make_task(cfg, workload, helpers.build_static)
        with pytest.raises(ValueError, match="timeout"):
            execute_cells([task], jobs=2, timeout=0.0)


class TestPartialResults:
    def test_report_returns_survivors_and_failures(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.build_static, name="good"),
            make_task(cfg, workload, helpers.always_raise, name="bad"),
        ]
        report = execute_cells_report(tasks, jobs=2, retries=0)
        assert not report.ok
        assert report.results[0] is not None
        assert report.results[1] is None
        assert len(report.completed()) == 1
        (failure,) = report.failures
        assert failure.cell.controller == "bad"
        assert failure.classification == "deterministic"
        assert report.counters["engine.cells_failed"] == 1

    def test_report_all_ok(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.build_static, name=f"c{i}")
            for i in range(2)
        ]
        report = execute_cells_report(tasks, jobs=2)
        assert report.ok
        assert len(report.completed()) == 2
        assert report.counters["engine.cells_run"] == 2

    def test_report_inline(self, cfg, workload):
        tasks = [
            make_task(cfg, workload, helpers.always_raise, name="bad"),
            make_task(cfg, workload, helpers.build_static, name="good"),
        ]
        report = execute_cells_report(tasks, jobs=1)
        assert [f.cell.controller for f in report.failures] == ["bad"]
        assert len(report.completed()) == 1
