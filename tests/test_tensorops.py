"""Contraction helpers checked against explicit kron-product oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockscan.errors import InvalidArgument
from fockscan.fock import HilbertSpace
from fockscan.tensorops import apply_channel, apply_left, apply_right_dag, apply_to_vector


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


def _dense_channel(phi, rho, mode, space):
    """Dense oracle: the sum of phi[(k, k'), (l, l')] E_kl rho E_l'k', each E_kl on `mode`."""
    c = space.cutoff
    unit = [[_embed(np.outer(np.eye(c)[k], np.eye(c)[l]), (mode,), space) for l in range(c)]
            for k in range(c)]
    out = np.zeros(rho.shape, dtype=complex)
    for k, kp, l, lp in np.ndindex(c, c, c, c):
        out += phi[k * c + kp, l * c + lp] * (unit[k][l] @ rho @ unit[lp][kp])
    return out


def _random_op(rng, k, cutoff):
    shape = (cutoff ** k, cutoff ** k)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# One-mode spaces, first / middle / last mode, adjacent pairs in either
# order and non-adjacent pairs.
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
    for modes in [(0,), (0, 1), (1, 0)]:
        with pytest.raises(InvalidArgument):
            apply_to_vector(op, np.zeros(9), modes, space)
        with pytest.raises(InvalidArgument):
            apply_left(op, np.zeros((9, 9)), modes, space)
        with pytest.raises(InvalidArgument):
            apply_right_dag(op, np.zeros((9, 9)), modes, space)


def test_invalid_modes_rejected():
    space = HilbertSpace(2, 3)
    for modes in [(-1,), (2,), (0, 0)]:
        op = np.eye(3 ** len(modes))
        with pytest.raises(InvalidArgument):
            apply_to_vector(op, np.zeros(9), modes, space)
        with pytest.raises(InvalidArgument):
            apply_left(op, np.zeros((9, 9)), modes, space)
        with pytest.raises(InvalidArgument):
            apply_right_dag(op, np.zeros((9, 9)), modes, space)
    for mode in (-1, 2):
        with pytest.raises(InvalidArgument):
            apply_channel(np.eye(9), np.zeros((9, 9)), mode, space)
    # A float mode is rejected before its layout is cached, so it cannot
    # shadow the integer mode that compares equal to it.
    one_mode = HilbertSpace(1, 7)
    with pytest.raises(InvalidArgument):
        apply_to_vector(np.eye(7), np.ones(7), (0.0,), one_mode)
    assert np.array_equal(apply_to_vector(np.eye(7), np.ones(7), (0,), one_mode), np.ones(7))


@pytest.mark.parametrize("n_modes,cutoff,mode",
                         [(n, c, mode) for n, c in ((1, 2), (1, 4), (2, 3), (2, 4), (3, 2), (3, 3))
                          for mode in range(n)])
def test_channel_matches_contract(n_modes, cutoff, mode):
    space = HilbertSpace(n_modes, cutoff)
    rng = np.random.default_rng(11)
    phi = _random_op(rng, 2, cutoff)  # cutoff^2 x cutoff^2, on one mode's rho.ravel()
    rho = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    want = _dense_channel(phi, rho, mode, space)
    assert np.allclose(apply_channel(phi, rho, mode, space), want, atol=1e-12)
    with pytest.raises(InvalidArgument):
        apply_channel(phi[1:, 1:], rho, mode, space)
    with pytest.raises(InvalidArgument):
        apply_channel(phi, rho, n_modes, space)


@st.composite
def _spaces_and_modes(draw):
    """A space of dimension <= 81 and a tuple of one or two distinct modes, in any order."""
    n_modes = draw(st.integers(1, 4))
    cutoff = draw(st.integers(2, 4).filter(lambda c: c ** n_modes <= 81))
    k = draw(st.integers(1, min(2, n_modes)))
    modes = draw(st.permutations(range(n_modes)))[:k]
    return HilbertSpace(n_modes, cutoff), tuple(modes)


@settings(max_examples=60, deadline=None)
@given(_spaces_and_modes(), st.integers(0, 2 ** 32 - 1))
def test_all_applications_match_dense(space_modes, seed):
    space, modes = space_modes
    c, dim = space.cutoff, space.dim
    rng = np.random.default_rng(seed)
    op = _random_op(rng, len(modes), c) / c ** len(modes)
    phi = _random_op(rng, 2, c) / c ** 2
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    psi, rho = psi / np.linalg.norm(psi), rho / np.linalg.norm(rho)
    dense = _embed(op, modes, space)
    for got, want in (
        (apply_to_vector(op, psi, modes, space), dense @ psi),
        (apply_left(op, rho, modes, space), dense @ rho),
        (apply_right_dag(op, rho, modes, space), rho @ dense.conj().T),
        (apply_channel(phi, rho, modes[0], space), _dense_channel(phi, rho, modes[0], space)),
    ):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12
