"""Process-pool fan-out shared by the sweep, scan-grid and Monte Carlo paths."""
from __future__ import annotations

import os

import numpy as np

from .errors import InvalidArgument


def _set_error_state(state: dict) -> None:
    """A worker's initializer: numpy's floating-point error handling as the caller had it."""
    np.seterr(**state)


def pool_map(fn, arg_tuples: list, jobs: int) -> list:
    """[fn(*args) for args in arg_tuples], in order, over at most jobs worker processes.

    The pool is sized min(jobs, len(arg_tuples), os.cpu_count()): a pool forks
    all of its workers at the first submit, so a larger request would only
    start idle processes.  A size of one runs in this process.  Workers
    start with the caller's numpy error state (np.geterr()), whatever the
    start method, so a guard such as np.errstate(all="raise") holds in them
    as it does in this process.
    """
    if jobs < 1:
        raise InvalidArgument("jobs must be >= 1")
    workers = min(jobs, len(arg_tuples), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*args) for args in arg_tuples]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_set_error_state,
                             initargs=(np.geterr(),)) as pool:
        return list(pool.map(fn, *zip(*arg_tuples)))
