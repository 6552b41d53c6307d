"""Contraction helpers checked against explicit kron-product oracles."""
import numpy as np
import pytest

from fockscan.errors import InvalidArgument
from fockscan.fock import HilbertSpace
from fockscan.tensorops import (
    _contract,
    apply_channel,
    apply_left,
    apply_right_dag,
    apply_to_vector,
)


def _embed(op, modes, space):
    """Dense oracle: kron-embed a k-mode operator onto the full space."""
    c, n = space.cutoff, space.n_modes
    perm = list(modes) + [m for m in range(n) if m not in modes]
    big = np.kron(op, np.eye(c ** (n - len(modes)), dtype=complex))
    # permute tensor axes so `modes` land in the leading slots
    t = big.reshape((c,) * (2 * n))
    inv = np.argsort(perm)
    t = np.transpose(t, list(inv) + [n + i for i in inv])
    return t.reshape(space.dim, space.dim)


def _random_op(rng, k, cutoff):
    shape = (cutoff ** k, cutoff ** k)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# Ascending runs of adjacent modes take the matmul route (one-mode spaces,
# first / middle / last mode, contiguous pairs); the other tuples take the
# tensordot route.
CASES = [
    (2, 3, (0,)), (2, 3, (1,)), (3, 3, (1,)),
    (3, 3, (0, 2)), (3, 3, (2, 0)), (4, 2, (1, 3)),
    (1, 4, (0,)), (1, 9, (0,)), (3, 3, (0,)), (3, 3, (2,)),
    (3, 3, (0, 1)), (3, 3, (1, 2)), (2, 3, (0, 1)), (4, 2, (1, 2)), (4, 2, (2, 3)),
    (2, 3, (1, 0)), (3, 3, (1, 0)), (4, 2, (0, 2)),
]


@pytest.mark.parametrize("n_modes,cutoff,modes", CASES)
def test_vector_application_matches_dense(n_modes, cutoff, modes):
    space = HilbertSpace(n_modes, cutoff)
    rng = np.random.default_rng(hash((n_modes, cutoff, modes)) % 2 ** 32)
    op = _random_op(rng, len(modes), cutoff)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    dense = _embed(op, modes, space)
    assert np.allclose(apply_to_vector(op, psi, modes, space), dense @ psi, atol=1e-12)


# The first four are the original two-mode cases; their ids are kept.
RHO_CASES = [(2, 3, (0,)), (2, 3, (1,)), (2, 3, (0, 1)), (2, 3, (1, 0))] + CASES


@pytest.mark.parametrize("n_modes,cutoff,modes", RHO_CASES,
                         ids=[f"modes{i}" for i in range(len(RHO_CASES))])
def test_rho_applications_match_dense(n_modes, cutoff, modes):
    space = HilbertSpace(n_modes, cutoff)
    rng = np.random.default_rng(5)
    op = _random_op(rng, len(modes), cutoff)
    rho = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    dense = _embed(op, modes, space)
    assert np.allclose(apply_left(op, rho, modes, space), dense @ rho, atol=1e-12)
    assert np.allclose(apply_right_dag(op, rho, modes, space), rho @ dense.conj().T, atol=1e-12)
    both = apply_right_dag(op, apply_left(op, rho, modes, space), modes, space)
    assert np.allclose(both, dense @ rho @ dense.conj().T, atol=1e-12)


def test_dimension_mismatch_rejected():
    space = HilbertSpace(2, 3)
    op = np.eye(4)
    for modes in [(0,), (0, 1), (1, 0)]:  # matmul and tensordot routes
        with pytest.raises(InvalidArgument):
            apply_to_vector(op, np.zeros(9), modes, space)
        with pytest.raises(InvalidArgument):
            apply_left(op, np.zeros((9, 9)), modes, space)
        with pytest.raises(InvalidArgument):
            apply_right_dag(op, np.zeros((9, 9)), modes, space)


@pytest.mark.parametrize("n_modes,cutoff,mode",
                         [(n, c, mode) for n, c in ((1, 2), (1, 4), (2, 3), (2, 4), (3, 2), (3, 3))
                          for mode in range(n)])
def test_channel_matches_contract(n_modes, cutoff, mode):
    space = HilbertSpace(n_modes, cutoff)
    rng = np.random.default_rng(11)
    phi = _random_op(rng, 2, cutoff)  # cutoff^2 x cutoff^2, on one mode's rho.ravel()
    rho = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    tensor = rho.reshape((cutoff,) * (2 * n_modes))
    want = _contract(phi, tensor, (mode, n_modes + mode), cutoff).reshape(rho.shape)
    assert np.allclose(apply_channel(phi, rho, mode, space), want, atol=1e-12)
    with pytest.raises(InvalidArgument):
        apply_channel(phi[1:, 1:], rho, mode, space)
    with pytest.raises(InvalidArgument):
        apply_channel(phi, rho, n_modes, space)
