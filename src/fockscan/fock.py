"""Truncated multi-mode bosonic Fock spaces: the basis and its labels.

Conventions used throughout the package:

* every mode shares the same truncation ``cutoff`` (levels 0 .. cutoff-1);
* basis index order is row-major over mode occupations, mode 0 varying
  slowest (``index = occ[0]*cutoff**(n-1) + ... + occ[n-1]``);
* mode 0 is the primary cavity of the detection protocol.

States and operators are plain ndarrays over a HilbertSpace, which callers
pass explicitly.  Operators act through the one-mode ladder matrix and the
occupation table (see tensorops and lindblad); no full-space operator is
built here.  Spaces are immutable and the cached tables read-only, so they
can be shared freely across parallel workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionCeilingExceeded, InvalidArgument

DIMENSION_CEILING = 65536


@dataclass(frozen=True)
class HilbertSpace:
    """n_modes bosonic modes, each truncated to Fock levels 0..cutoff-1."""

    n_modes: int
    cutoff: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise InvalidArgument(f"n_modes must be >= 1, got {self.n_modes}")
        if self.cutoff < 2:
            raise InvalidArgument(f"cutoff must be >= 2, got {self.cutoff}")
        if self.cutoff ** self.n_modes > DIMENSION_CEILING:
            raise DimensionCeilingExceeded(
                f"dimension {self.cutoff}**{self.n_modes} exceeds ceiling "
                f"{DIMENSION_CEILING}; use the effective single-mode backend"
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


@lru_cache(maxsize=64)
def single_mode_ladder(cutoff: int) -> np.ndarray:
    """Single-mode lowering matrix with <k-1|a|k> = sqrt(k)."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(1, cutoff)
    a[ks - 1, ks] = np.sqrt(ks)
    a.setflags(write=False)
    return a


def number_state(space: HilbertSpace, occupations_list) -> np.ndarray:
    """Unit basis vector |n_0, n_1, ..., n_{N-1}>."""
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index_of(occupations_list)] = 1.0
    return vec
