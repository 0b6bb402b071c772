"""Determinism matrix: jobs=1 vs 2 vs 4, cold vs warm cache.

The contract under test: for every deterministic output (everything but
the wall-clock ``decision_time``), the sharded engine and the result
cache are *invisible* — any jobs count and any cache state produce the
same bits as the historical serial loop.  The matrix covers the plain
suite grid, a fault-campaign + watchdog run (extras round-trip through
workers and the cache), and the budget sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultCampaign
from repro.manycore import SensorSpec, SensorSuite, default_system
from repro.parallel import ResultCache, assert_trace_equal
from repro.sim import run_budget_sweep, run_suite, standard_controllers
from repro.workloads import make_benchmark, mixed_workload

N_CORES = 8
N_EPOCHS = 30
SEED = 0
JOBS_MATRIX = (2, 4)

#: One seeded controller, one deterministic baseline — enough to cover
#: both RNG-derivation paths without inflating the matrix's run time.
CONTROLLERS = ("od-rl", "static-uniform")


@pytest.fixture(scope="module")
def cfg():
    return default_system(n_cores=N_CORES, n_levels=4, budget_fraction=0.6)


@pytest.fixture(scope="module")
def chosen():
    lineup = standard_controllers(seed=SEED)
    return {name: lineup[name] for name in CONTROLLERS}


@pytest.fixture(scope="module")
def workloads():
    return {
        "mixed": mixed_workload(N_CORES, seed=SEED),
        "fft": make_benchmark("fft", N_CORES, seed=SEED),
    }


@pytest.fixture(scope="module")
def fault_sim_kwargs():
    return {
        "faults": FaultCampaign.random(
            N_CORES, N_EPOCHS, rate=0.1, seed=3, n_crashes=1
        ),
        "watchdog": True,
        "checkpoint_period": 10,
    }


def assert_suites_equal(a, b, context):
    assert set(a) == set(b)
    for ctrl in a:
        assert list(a[ctrl]) == list(b[ctrl])
        for wl in a[ctrl]:
            assert_trace_equal(
                a[ctrl][wl], b[ctrl][wl], context=f"{context}[{ctrl}][{wl}]"
            )


class TestSuiteMatrix:
    @pytest.fixture(scope="class")
    def serial(self, cfg, workloads, chosen):
        return run_suite(cfg, workloads, chosen, N_EPOCHS)

    @pytest.mark.parametrize("jobs", JOBS_MATRIX)
    def test_parallel_suite_matches_serial(self, cfg, workloads, chosen, serial, jobs):
        parallel = run_suite(cfg, workloads, chosen, N_EPOCHS, jobs=jobs)
        assert_suites_equal(serial, parallel, f"suite jobs={jobs}")

    def test_cold_then_warm_cache_match_serial(
        self, cfg, workloads, chosen, serial, tmp_path
    ):
        cache = ResultCache(tmp_path)
        n_cells = len(chosen) * len(workloads)
        cold = run_suite(cfg, workloads, chosen, N_EPOCHS, jobs=2, cache=cache)
        assert (cache.hits, cache.misses) == (0, n_cells)
        warm = run_suite(cfg, workloads, chosen, N_EPOCHS, jobs=2, cache=cache)
        assert (cache.hits, cache.misses) == (n_cells, n_cells)
        assert_suites_equal(serial, cold, "cold cache")
        assert_suites_equal(serial, warm, "warm cache")

    def test_serial_with_cache_matches_parallel_warm(
        self, cfg, workloads, chosen, serial, tmp_path
    ):
        # A cache written by a parallel run must replay identically in a
        # later serial invocation, and vice versa.
        cache = ResultCache(tmp_path)
        run_suite(cfg, workloads, chosen, N_EPOCHS, jobs=4, cache=cache)
        replayed = run_suite(cfg, workloads, chosen, N_EPOCHS, jobs=1, cache=cache)
        assert cache.hits == len(chosen) * len(workloads)
        assert_suites_equal(serial, replayed, "parallel-written, serial-read")


class TestFaultedRunMatrix:
    """Fault campaigns and the watchdog exercise the extras round-trip:
    failure logs (lists of tuples serially, lists of lists after a cache
    JSON round-trip) must compare equal up to canonicalization."""

    @pytest.fixture(scope="class")
    def serial(self, cfg, workloads, chosen, fault_sim_kwargs):
        return run_suite(
            cfg, workloads, chosen, N_EPOCHS, sim_kwargs=fault_sim_kwargs
        )

    @pytest.mark.parametrize("jobs", JOBS_MATRIX)
    def test_faulted_parallel_matches_serial(
        self, cfg, workloads, chosen, serial, fault_sim_kwargs, jobs
    ):
        parallel = run_suite(
            cfg, workloads, chosen, N_EPOCHS, jobs=jobs,
            sim_kwargs=fault_sim_kwargs,
        )
        assert_suites_equal(serial, parallel, f"faulted jobs={jobs}")

    def test_faulted_cache_roundtrip_matches_serial(
        self, cfg, workloads, chosen, serial, fault_sim_kwargs, tmp_path
    ):
        cache = ResultCache(tmp_path)
        run_suite(
            cfg, workloads, chosen, N_EPOCHS, jobs=2, cache=cache,
            sim_kwargs=fault_sim_kwargs,
        )
        warm = run_suite(
            cfg, workloads, chosen, N_EPOCHS, jobs=2, cache=cache,
            sim_kwargs=fault_sim_kwargs,
        )
        assert cache.hits == len(chosen) * len(workloads)
        assert_suites_equal(serial, warm, "faulted warm cache")


class TestSweepMatrix:
    @pytest.fixture(scope="class")
    def budgets(self, cfg):
        return [cfg.power_budget * 0.8, cfg.power_budget * 1.1]

    @pytest.fixture(scope="class")
    def serial(self, cfg, workloads, chosen, budgets):
        return run_budget_sweep(
            cfg, budgets, workloads["mixed"], chosen, N_EPOCHS
        )

    @pytest.mark.parametrize("jobs", JOBS_MATRIX)
    def test_parallel_sweep_matches_serial(
        self, cfg, workloads, chosen, budgets, serial, jobs
    ):
        parallel = run_budget_sweep(
            cfg, budgets, workloads["mixed"], chosen, N_EPOCHS, jobs=jobs
        )
        assert set(parallel) == set(serial)
        for ctrl in serial:
            assert list(parallel[ctrl]) == list(serial[ctrl])
            for budget in serial[ctrl]:
                assert_trace_equal(
                    serial[ctrl][budget],
                    parallel[ctrl][budget],
                    context=f"sweep jobs={jobs}[{ctrl}][{budget}]",
                )

    def test_sweep_cache_roundtrip(
        self, cfg, workloads, chosen, budgets, serial, tmp_path
    ):
        cache = ResultCache(tmp_path)
        run_budget_sweep(
            cfg, budgets, workloads["mixed"], chosen, N_EPOCHS,
            jobs=2, cache=cache,
        )
        warm = run_budget_sweep(
            cfg, budgets, workloads["mixed"], chosen, N_EPOCHS,
            jobs=2, cache=cache,
        )
        assert cache.hits == len(chosen) * len(budgets)
        for ctrl in serial:
            for budget in serial[ctrl]:
                assert_trace_equal(
                    serial[ctrl][budget],
                    warm[ctrl][budget],
                    context=f"sweep warm cache[{ctrl}][{budget}]",
                )


class TestStatefulSimKwargs:
    """A stateful option shared by a grid's cells must not leak state.

    Pool workers each unpickle a private copy of a task; inline cells
    used to share the caller's object, so a noisy ``SensorSuite`` carried
    its RNG from one cell to the next and a cell's result depended on its
    neighbours.  Every cell now starts from the caller's state.
    """

    def test_noisy_sensor_suite_does_not_carry_across_cells(self, cfg, chosen):
        def noisy_sensors():
            return SensorSuite(
                np.random.default_rng(5),
                power_spec=SensorSpec(relative_noise=0.2),
            )

        lineup = {"od-rl": chosen["od-rl"]}
        workloads = {
            name: make_benchmark(name, N_CORES, seed=SEED)
            for name in ("barnes", "ocean")
        }
        grid = run_suite(
            cfg, workloads, lineup, 60, sim_kwargs={"sensors": noisy_sensors()}
        )
        alone = run_suite(
            cfg, {"ocean": workloads["ocean"]}, lineup, 60,
            sim_kwargs={"sensors": noisy_sensors()},
        )
        assert_trace_equal(
            grid["od-rl"]["ocean"], alone["od-rl"]["ocean"],
            context="ocean in a grid vs alone",
        )
