"""Truncated multi-mode bosonic Fock spaces and the elementary operators.

Conventions used throughout the package:

* every mode shares the same truncation ``cutoff`` (levels 0 .. cutoff-1);
* basis index order is row-major over mode occupations, mode 0 varying
  slowest (``index = occ[0]*cutoff**(n-1) + ... + occ[n-1]``);
* mode 0 is the primary cavity of the detection protocol.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely across parallel workers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionCeilingExceeded, InvalidArgument
from .linalg import expm, hermiticity_defect

DEFAULT_DIMENSION_CEILING = 65536


@dataclass(frozen=True)
class HilbertSpace:
    """n_modes bosonic modes, each truncated to Fock levels 0..cutoff-1."""

    n_modes: int
    cutoff: int
    ceiling: int = field(default=DEFAULT_DIMENSION_CEILING, compare=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise InvalidArgument(f"n_modes must be >= 1, got {self.n_modes}")
        if self.cutoff < 2:
            raise InvalidArgument(f"cutoff must be >= 2, got {self.cutoff}")
        if self.cutoff ** self.n_modes > self.ceiling:
            raise DimensionCeilingExceeded(
                f"dimension {self.cutoff}**{self.n_modes} exceeds ceiling "
                f"{self.ceiling}; use the effective single-mode backend"
            )

    @property
    def dim(self) -> int:
        return self.cutoff ** self.n_modes

    def index_of(self, occupations) -> int:
        occ = list(occupations)
        if len(occ) != self.n_modes:
            raise InvalidArgument("occupation list length must equal n_modes")
        idx = 0
        for o in occ:
            if not 0 <= o < self.cutoff:
                raise InvalidArgument(f"occupation {o} outside 0..{self.cutoff - 1}")
            idx = idx * self.cutoff + o
        return idx


@lru_cache(maxsize=64)
def _occupation_table(n_modes: int, cutoff: int) -> np.ndarray:
    """(dim, n_modes) integer array mapping basis index -> occupations."""
    grids = np.indices((cutoff,) * n_modes).reshape(n_modes, -1).T
    grids.setflags(write=False)
    return grids


def occupations(space: HilbertSpace) -> np.ndarray:
    """Read-only (dim, n_modes) occupation-number table for the basis."""
    return _occupation_table(space.n_modes, space.cutoff)


@dataclass(frozen=True)
class DenseOperator:
    """Square complex matrix tied to a HilbertSpace."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.space.dim, self.space.dim):
            raise InvalidArgument(
                f"matrix shape {mat.shape} does not match space dim {self.space.dim}"
            )
        object.__setattr__(self, "matrix", mat)

    def dag(self) -> "DenseOperator":
        return DenseOperator(self.space, self.matrix.conj().T)

    def expm(self) -> "DenseOperator":
        return DenseOperator(self.space, expm(self.matrix))

    def __matmul__(self, other):
        if isinstance(other, DenseOperator):
            self._check_space(other)
            return DenseOperator(self.space, self.matrix @ other.matrix)
        if isinstance(other, StateVector):
            if other.space != self.space:
                raise InvalidArgument("operator and state live on different spaces")
            return StateVector(self.space, self.matrix @ other.vector)
        return NotImplemented

    def __add__(self, other):
        self._check_space(other)
        return DenseOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check_space(other)
        return DenseOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return DenseOperator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def _check_space(self, other):
        if not isinstance(other, DenseOperator) or other.space != self.space:
            raise InvalidArgument("operands live on different spaces")


@dataclass(frozen=True)
class StateVector:
    """Pure state over a HilbertSpace."""

    space: HilbertSpace
    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex)
        if vec.shape != (self.space.dim,):
            raise InvalidArgument(f"vector length {vec.shape} != space dim {self.space.dim}")
        object.__setattr__(self, "vector", vec)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def expectation(self, op: DenseOperator) -> complex:
        return complex(np.vdot(self.vector, op.matrix @ self.vector))

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.vector, other.vector))

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.vector, self.vector.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace matrix over a HilbertSpace (checks on demand)."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.space.dim, self.space.dim):
            raise InvalidArgument("density matrix shape does not match space")
        object.__setattr__(self, "matrix", mat)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def trace_defect(self) -> float:
        return abs(np.trace(self.matrix) - 1.0)

    def hermiticity_defect(self) -> float:
        return hermiticity_defect(self.matrix)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitian part; an on-demand positivity check."""
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])

    def expectation(self, op: DenseOperator) -> float:
        return float(np.trace(op.matrix @ self.matrix).real)


def ladder(space: HilbertSpace, mode: int, kind: str = "lowering") -> DenseOperator:
    """Truncated ladder operator on one mode, identity on the others.

    <k-1| a |k> = sqrt(k); the raising operator is the adjoint, with
    a^dag |cutoff-1> = 0 at the truncation boundary.
    """
    if not 0 <= mode < space.n_modes:
        raise InvalidArgument(f"mode {mode} outside 0..{space.n_modes - 1}")
    if kind not in ("lowering", "raising"):
        raise InvalidArgument(f"kind must be 'lowering' or 'raising', got {kind!r}")
    single = single_mode_ladder(space.cutoff)
    if kind == "raising":
        single = single.conj().T
    return DenseOperator(space, embed_single_mode(single, mode, space))


@lru_cache(maxsize=64)
def single_mode_ladder(cutoff: int) -> np.ndarray:
    """Single-mode lowering matrix with <k-1|a|k> = sqrt(k)."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(1, cutoff)
    a[ks - 1, ks] = np.sqrt(ks)
    a.setflags(write=False)
    return a


def embed_single_mode(op: np.ndarray, mode: int, space: HilbertSpace) -> np.ndarray:
    """Kron-embed a cutoff x cutoff matrix as an operator on the full space."""
    out = np.array([[1.0 + 0j]])
    eye = np.eye(space.cutoff, dtype=complex)
    for m in range(space.n_modes):
        out = np.kron(out, op if m == mode else eye)
    return out


def number_operator(space: HilbertSpace, mode: int) -> DenseOperator:
    occ = occupations(space)[:, mode].astype(float)
    return DenseOperator(space, np.diag(occ).astype(complex))


def number_state(space: HilbertSpace, occupations_list) -> StateVector:
    """Unit basis vector |n_0, n_1, ..., n_{N-1}>."""
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index_of(occupations_list)] = 1.0
    return StateVector(space, vec)


def vacuum_state(space: HilbertSpace) -> StateVector:
    return number_state(space, [0] * space.n_modes)


def displacement(space: HilbertSpace, mode: int, alpha: complex) -> DenseOperator:
    """D(alpha) = exp(alpha a^dag - alpha* a) on one mode.

    Unitary by construction (exponential of an anti-Hermitian generator);
    faithful to the untruncated operator only while |alpha|^2 stays well
    below the cutoff, which the leakage monitor tracks downstream.
    """
    a = ladder(space, mode, "lowering").matrix
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return DenseOperator(space, expm(gen))


def leakage(state, space: HilbertSpace | None = None) -> float:
    """Summed population sitting at the top Fock level of each mode.

    Acts as the validity monitor for the truncation: any appreciable value
    means the dynamics touched the artificial boundary.
    """
    if isinstance(state, StateVector):
        space = state.space
        probs = np.abs(state.vector) ** 2
    elif isinstance(state, DensityMatrix):
        space = state.space
        probs = np.diag(state.matrix).real
    else:
        if space is None:
            raise InvalidArgument("raw arrays require an explicit space")
        arr = np.asarray(state)
        probs = np.abs(arr) ** 2 if arr.ndim == 1 else np.diag(arr).real
    occ = occupations(space)
    top = occ == (space.cutoff - 1)
    return float(sum(probs[top[:, m]].sum() for m in range(space.n_modes)))
