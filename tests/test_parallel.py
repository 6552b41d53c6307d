"""Worker-pool sizing, checked with a stand-in executor that starts no process."""
import concurrent.futures
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fockscan import protocol
from fockscan.cli import main
from fockscan.drive import mc_population
from fockscan.errors import InvalidArgument
from fockscan.parallel import pool_map
from fockscan.protocol import ProtocolConfig, scan_rate_grid

GOLDEN = Path(__file__).parent / "golden"
HUGE = 5000  # never reaches a real pool: the executor below is a stand-in
FRESH_ERRORS = {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}


class SerialExecutor:
    """Records the requested pool size and maps in this process.

    The map runs as a freshly started worker would: from numpy's default
    error state, after the pool's initializer.
    """

    sizes = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        self.initializer, self.initargs = initializer, initargs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        with np.errstate(**FRESH_ERRORS):
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return list(map(fn, *iterables))


@pytest.fixture
def pool_sizes(monkeypatch):
    SerialExecutor.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    yield SerialExecutor.sizes
    assert multiprocessing.active_children() == []


def _add(a, b):
    return a + b


def test_pool_is_bounded_by_tasks_and_cpus(pool_sizes, monkeypatch):
    tasks = [(i, 10 * i) for i in range(6)]
    assert list(pool_map(_add, tasks, HUGE)) == [11 * i for i in range(6)]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert list(pool_map(_add, tasks, HUGE)) == [11 * i for i in range(6)]
    assert pool_sizes == [6, 2]


def test_single_worker_runs_in_process(pool_sizes):
    assert list(pool_map(_add, [(1, 2), (3, 4)], 1)) == [3, 7]
    assert list(pool_map(_add, [(1, 2)], HUGE)) == [3]
    assert list(pool_map(_add, [], HUGE)) == []
    assert pool_sizes == []


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs, pool_sizes, tmp_path, monkeypatch):
    with pytest.raises(InvalidArgument):
        pool_map(_add, [(1, 2)], jobs)
    args = ["validate-gates", "--config", str(GOLDEN / "configs" / "gates.yaml"),
            "--out", str(tmp_path)]
    assert main(args + ["--jobs", str(jobs)]) == 2
    monkeypatch.setenv("FOCKSCAN_JOBS", str(jobs))
    assert main(args) == 2
    assert pool_sizes == []


def _error_state(_):
    return np.geterr()


def test_workers_start_with_the_callers_error_state(pool_sizes):
    with np.errstate(over="raise", invalid="raise"):
        want = np.geterr()
        assert want != FRESH_ERRORS
        assert list(pool_map(_error_state, [(0,), (1,)], HUGE)) == [want, want]
    assert pool_sizes == [2]
    with np.errstate(**FRESH_ERRORS):
        assert list(pool_map(_error_state, [(0,), (1,)], HUGE)) == [FRESH_ERRORS] * 2


def test_in_process_results_are_taken_one_call_at_a_time(pool_sizes):
    calls = []

    def record(i):
        calls.append(i)
        return 10 * i

    results = pool_map(record, [(i,) for i in range(4)], 1)
    assert calls == []
    assert next(results) == 0 and calls == [0]
    assert list(results) == [10, 20, 30] and calls == [0, 1, 2, 3]
    assert pool_sizes == []


def test_jobs_are_checked_and_error_state_captured_at_the_call(pool_sizes):
    with pytest.raises(InvalidArgument):
        pool_map(_add, [], 0)  # nothing to take: raised by the call itself
    with np.errstate(over="raise", invalid="raise"):
        want = np.geterr()
        results = pool_map(_error_state, [(0,), (1,)], HUGE)
    # taken outside the errstate block, after which the pool starts
    assert pool_sizes == []
    assert list(results) == [want, want]
    assert pool_sizes == [2]


def _sleep_then(index, delay):
    time.sleep(delay)
    return index, np.geterr()["over"]


def test_real_pool_yields_in_order_and_stays_open_until_the_last(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tasks = [(i, 0.15 * (3 - i)) for i in range(4)]  # later tasks finish first
    with np.errstate(over="raise"):
        results = pool_map(_sleep_then, tasks, 2)
    assert next(results) == (0, "raise")
    assert multiprocessing.active_children()  # the pool is still open
    assert list(results) == [(i, "raise") for i in range(1, 4)]
    assert multiprocessing.active_children() == []


def test_mc_population_pool_size(pool_sizes):
    grid = [0.5, 1.0, 2.0]
    serial = mc_population(1.0, 1.0, 0.0, grid, 600, seed=3, n_jobs=1, _chunk=128)
    pooled = mc_population(1.0, 1.0, 0.0, grid, 600, seed=3, n_jobs=HUGE, _chunk=128)
    assert pool_sizes == [5]
    assert (serial.mean == pooled.mean).all()


def test_scan_rate_grid_pool_size(pool_sizes, monkeypatch):
    monkeypatch.setattr(protocol, "_scan_point", lambda base, n, m, units: (1.0, 1.0, 1.0, "full"))
    base = ProtocolConfig(n_cavities=1, fock_m=0, omega=1.0)
    rows = scan_rate_grid(base, [1, 2, 4], [0, 1], jobs=HUGE)
    assert pool_sizes == [6]
    assert [(r.n_cavities, r.fock_m) for r in rows] == [(n, m) for n in (1, 2, 4) for m in (0, 1)]


def test_snr_sweep_pool_size(pool_sizes, tmp_path):
    cfg = GOLDEN / "configs" / "sweep.yaml"
    assert main(["snr-sweep", "--config", str(cfg), "--out", str(tmp_path),
                 "--jobs", str(HUGE)]) == 0
    assert pool_sizes == [2]  # one worker per fock_m
    for name in ("snr_sweep.csv", "snr_sweep.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / "expected" / "sweep" / name).read_bytes()
