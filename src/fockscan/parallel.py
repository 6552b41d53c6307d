"""Process-pool fan-out shared by the sweep, scan-grid and Monte Carlo paths."""
from __future__ import annotations

import os
from collections.abc import Iterator

import numpy as np

from .errors import InvalidArgument


def _set_error_state(state: dict) -> None:
    """A worker's initializer: numpy's floating-point error handling as the caller had it."""
    np.seterr(**state)


def pool_map(fn, arg_tuples: list, jobs: int) -> Iterator:
    """fn(*args) for args in arg_tuples, yielded lazily and in order, over at most jobs workers.

    The pool is sized min(jobs, len(arg_tuples), os.cpu_count()): a pool forks
    all of its workers at the first submit, so a larger request would only
    start idle processes.  A size of one runs in this process, each call as
    its result is taken.  `jobs` is checked, and the caller's numpy error
    state (np.geterr()) captured, when pool_map is called; workers start with
    that state, whatever the start method, so a guard such as
    np.errstate(all="raise") holds in them as it does in this process.  A
    pool stays open until its last result has been taken (or the iterator
    is closed), so a caller can consume each result as it arrives instead
    of holding them all; wrap the call in list() to have them at once.
    """
    if jobs < 1:
        raise InvalidArgument("jobs must be >= 1")
    workers = min(jobs, len(arg_tuples), os.cpu_count() or 1)
    if workers <= 1:
        return (fn(*args) for args in arg_tuples)
    return _pooled(fn, arg_tuples, workers, np.geterr())


def _pooled(fn, arg_tuples, workers, error_state):
    """pool_map over a process pool: results as they come in order, the pool open until the last."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_set_error_state,
                             initargs=(error_state,)) as pool:
        yield from pool.map(fn, *zip(*arg_tuples))
