"""Dense linear-algebra helpers.

The matrix exponential here is a plain scaling-and-squaring evaluation of a
truncated Taylor series.  The generators produced in this package (displacement
and beamsplitter generators on truncated Fock spaces, and the real dissipator
superoperators of lindblad) have modest norm once scaled, so a fixed-order
series reaches residuals near machine precision.  A real matrix is
exponentiated in real arithmetic, a complex one in complex arithmetic.
"""
from __future__ import annotations

import math

import numpy as np

# Taylor order for the scaled matrix; with the scaled 1-norm at or below
# _THETA the series remainder is < 0.5**(K+1)/(K+1)! ~ 4e-31.
_TAYLOR_ORDER = 24
_THETA = 0.5


def expm(mat: np.ndarray) -> np.ndarray:
    """exp(mat) by scaling-and-squaring with a truncated Taylor series; real if mat is real."""
    a = np.asarray(mat, dtype=complex if np.iscomplexobj(mat) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm expects a square matrix")
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        raise ValueError("expm input contains non-finite entries")
    n_square = max(0, int(math.ceil(math.log2(norm / _THETA)))) if norm > _THETA else 0
    scaled = a / (2.0 ** n_square)

    # Horner evaluation of sum_{k<=K} scaled^k / k!
    eye = np.eye(a.shape[0], dtype=a.dtype)
    result = eye + scaled / _TAYLOR_ORDER
    for k in range(_TAYLOR_ORDER - 1, 0, -1):
        result = eye + (scaled @ result) / k
    for _ in range(n_square):
        result = result @ result
    return result


def max_abs(mat: np.ndarray) -> float:
    """Entrywise max-norm, the residual measure used in the gate checks."""
    return float(np.max(np.abs(mat))) if np.asarray(mat).size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I|."""
    u = np.asarray(u)
    return max_abs(u.conj().T @ u - np.eye(u.shape[0]))
