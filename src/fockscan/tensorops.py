"""Apply few-mode operators to multi-mode states without full kron products.

States over an n-mode space (uniform cutoff c) are stored mode 0 first, so a
state vector is a rank-n tensor of c-sized axes, one per mode, and a density
matrix a rank-2n one, the n ket axes before the n bra axes.  Every function
here lays its operator onto that tensor in one way (_apply): one transpose
brings the addressed axes to the front, in the order given, one ``matmul``
applies the operator to them, and one transpose puts them back.  The public
functions differ only in the axes they address:

* apply_to_vector: axis `mode` of the vector, for each listed mode;
* apply_left (A @ rho): the ket axis `mode` of each listed mode;
* apply_right_dag (rho @ A^dag): the bra axis `n + mode` of each listed
  mode, with conj(A);
* apply_channel: the axes (mode, n + mode) of one mode, for a one-mode
  channel, a cutoff^2 x cutoff^2 matrix on that mode's rho.ravel().

A k-mode operator costs O(c^(n+k)) per state vector and O(c^(2n+k)) per
density matrix, instead of the O(c^(2n)) / O(c^(3n)) of a dense full-space
product.  The tensor shape, the permutation and its inverse depend only on
the modes, the space and the axes addressed, so _layout checks the modes and
builds that layout once per key and caches it: at the small dimensions the
propagators step through, rebuilding it on every call would cost about as
much as the product.  When the addressed axes already lead, in order, both
transposes are views and only the product moves data.

apply_channel serves the lossy gate windows (lindblad._run_windows); the
integration engine works on real Hermitian coordinates instead and never
applies a channel to a density matrix.
"""
from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument
from .fock import HilbertSpace


@lru_cache(maxsize=256)
def _layout(modes: tuple, n_modes: int, cutoff: int, rank: int, offsets: tuple) -> tuple:
    """Shape, permutation bringing the axes offset + mode to the front, its inverse, their size."""
    if len(set(modes)) != len(modes) or not all(
            isinstance(m, numbers.Integral) and 0 <= m < n_modes for m in modes):
        raise InvalidArgument(f"modes {modes} are not distinct modes of a {n_modes}-mode space")
    axes = tuple(offset + m for offset in offsets for m in modes)
    perm = axes + tuple(a for a in range(rank) if a not in axes)
    return (cutoff,) * rank, perm, tuple(np.argsort(perm).tolist()), cutoff ** len(axes)


def _apply(op: np.ndarray, state: np.ndarray, modes, space: HilbertSpace, rank: int, offsets: tuple):
    """op on the axes offset + mode (each offset, then each mode) of state as a rank-`rank` tensor."""
    shape, perm, inverse, size = _layout(tuple(modes), space.n_modes, space.cutoff, rank, offsets)
    if op.shape != (size, size):
        raise InvalidArgument("operator dimension does not match the addressed modes")
    out = op @ state.reshape(shape).transpose(perm).reshape(size, -1)
    return out.reshape(shape).transpose(inverse)


def apply_to_vector(op: np.ndarray, psi: np.ndarray, modes, space: HilbertSpace) -> np.ndarray:
    """op acting on the listed modes of a state vector."""
    return _apply(op, psi, modes, space, space.n_modes, (0,)).reshape(-1)


def apply_left(op: np.ndarray, rho: np.ndarray, modes, space: HilbertSpace) -> np.ndarray:
    """A @ rho with A acting on the listed modes."""
    return _apply(op, rho, modes, space, 2 * space.n_modes, (0,)).reshape(space.dim, space.dim)


def apply_right_dag(op: np.ndarray, rho: np.ndarray, modes, space: HilbertSpace) -> np.ndarray:
    """rho @ A^dag with A acting on the listed modes."""
    n = space.n_modes
    return _apply(op.conj(), rho, modes, space, 2 * n, (n,)).reshape(space.dim, space.dim)


def apply_channel(phi: np.ndarray, rho: np.ndarray, mode: int, space: HilbertSpace) -> np.ndarray:
    """A one-mode channel phi (acting on a one-mode rho.ravel()) on one mode of a density matrix."""
    n = space.n_modes
    return _apply(phi, rho, (mode,), space, 2 * n, (0, n)).reshape(space.dim, space.dim)
