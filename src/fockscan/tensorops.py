"""Apply few-mode operators to multi-mode states without full kron products.

States over an n-mode space (uniform cutoff c) are stored mode 0 first, so a
k-mode operator on an ascending run of consecutive modes j..j+k-1 acts on the
middle factor of the flat index split as (c^j, c^k, rest).  That is one
reshape and one ``matmul`` per application:

* ket side (A @ rho):    A @ rho viewed as (c^j, c^k, dim c^(n-j-k)), a
  single 2-D product when j = 0;
* bra side (rho @ A^dag): conj(A) @ rho viewed as (dim c^j, c^k, c^(n-j-k));
  when the run ends at the last mode this is (conj(A) @ R^T)^T with R the
  (dim c^(n-k), c^k) view, keeping the operator on the left;
* state vectors follow the bra-side rule with dim = 1.

On a one-mode space both sides are plain 2-D products.  Any other mode tuple
(non-adjacent like (0, 2), or descending like (1, 0)) is contracted onto the
rank-n / rank-2n tensor with ``np.tensordot`` and the axes moved back.  Both
routes cost O(c^(n+k)) per state vector and O(c^(2n+k)) per density matrix,
instead of the O(c^(2n)) / O(c^(3n)) of a dense full-space product; the
matmul route avoids the per-call axis bookkeeping that dominates at the small
dimensions the propagators step through.

apply_channel applies a one-mode channel, a cutoff^2 x cutoff^2 matrix on
that mode's rho.ravel(), over the mode's ket and bra axes of a density
matrix: one transpose brings the two axes to the front, one matmul applies
the channel, and one transpose puts them back.  It serves the lossy gate
windows (lindblad._run_windows); the integration engine works on real
Hermitian coordinates instead and never applies a channel to a density
matrix.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .fock import HilbertSpace


def _check_shape(op: np.ndarray, k: int, cutoff: int) -> None:
    if op.shape != (cutoff ** k, cutoff ** k):
        raise InvalidArgument("operator dimension does not match the addressed modes")


def _run_start(modes: tuple, n_modes: int) -> int | None:
    """First mode of an ascending run of consecutive in-range modes, else None."""
    if not modes or modes[0] < 0 or modes[-1] >= n_modes:
        return None
    j = modes[0]
    return j if modes == tuple(range(j, j + len(modes))) else None


def _matmul_run(op: np.ndarray, flat: np.ndarray, lead: int, block: int) -> np.ndarray:
    """op on the middle factor of flat viewed as (lead, block, rest)."""
    rest = flat.size // (lead * block)
    if rest == 1:
        return (op @ flat.reshape(-1, block).T).T
    if lead == 1:
        return op @ flat.reshape(block, -1)
    return np.matmul(op, flat.reshape(lead, block, rest))


def _contract(op: np.ndarray, tensor: np.ndarray, axes: tuple[int, ...], cutoff: int) -> np.ndarray:
    k = len(axes)
    _check_shape(op, k, cutoff)
    op_t = op.reshape((cutoff,) * (2 * k))
    out = np.tensordot(op_t, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def _apply(op: np.ndarray, flat: np.ndarray, modes, space: HilbertSpace, rank: int, offset: int):
    """op on the listed modes of a rank-`rank` state whose mode axes start at `offset`."""
    modes = tuple(modes)
    c = space.cutoff
    j = _run_start(modes, space.n_modes)
    if j is None:
        axes = tuple(m + offset for m in modes)
        return _contract(op, flat.reshape((c,) * rank), axes, c)
    _check_shape(op, len(modes), c)
    return _matmul_run(op, flat, c ** (offset + j), c ** len(modes))


def apply_to_vector(op: np.ndarray, psi: np.ndarray, modes, space: HilbertSpace) -> np.ndarray:
    """op acting on the listed modes of a state vector."""
    return _apply(op, psi, modes, space, space.n_modes, 0).reshape(-1)


def apply_left(op: np.ndarray, rho: np.ndarray, modes, space: HilbertSpace) -> np.ndarray:
    """A @ rho with A acting on the listed modes."""
    n = space.n_modes
    return _apply(op, rho, modes, space, 2 * n, 0).reshape(space.dim, space.dim)


def apply_right_dag(op: np.ndarray, rho: np.ndarray, modes, space: HilbertSpace) -> np.ndarray:
    """rho @ A^dag with A acting on the listed modes."""
    n = space.n_modes
    return _apply(op.conj(), rho, modes, space, 2 * n, n).reshape(space.dim, space.dim)


def apply_channel(phi: np.ndarray, rho: np.ndarray, mode: int, space: HilbertSpace) -> np.ndarray:
    """A one-mode channel phi (acting on a one-mode rho.ravel()) on one mode of a density matrix."""
    c = space.cutoff
    if phi.shape != (c * c, c * c) or not 0 <= mode < space.n_modes:
        raise InvalidArgument("channel dimension or mode does not match the space")
    lead, rest = c ** mode, c ** (space.n_modes - 1 - mode)
    t = rho.reshape(lead, c, rest, lead, c, rest).transpose(1, 4, 0, 2, 3, 5)
    out = (phi @ t.reshape(c * c, -1)).reshape(c, c, lead, rest, lead, rest)
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(space.dim, space.dim)
