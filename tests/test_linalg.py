import numpy as np
import pytest
import scipy.linalg

from fockscan.linalg import expm, max_abs, unitarity_defect


@pytest.mark.parametrize("dim,scale", [(4, 0.3), (16, 2.0), (40, 8.0), (25, 30.0)])
def test_expm_matches_scipy_pade(dim, scale):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a *= scale / np.linalg.norm(a, 1)
    ours = expm(a)
    ref = scipy.linalg.expm(a)
    assert max_abs(ours - ref) / max_abs(ref) < 1e-12


@pytest.mark.parametrize("dim,scale", [(4, 0.3), (16, 2.0), (81, 8.0), (25, 30.0)])
def test_expm_real_input_stays_real(dim, scale):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim))
    a *= scale / np.linalg.norm(a, 1)
    ours = expm(a)
    ref = expm(a.astype(complex))
    assert ours.dtype == float
    assert max_abs(ours - ref) / max_abs(ref) <= 1e-14


def test_expm_anti_hermitian_is_unitary():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    gen = a - a.conj().T
    u = expm(gen)
    assert unitarity_defect(u) < 1e-12


def test_expm_zero_and_identity():
    assert max_abs(expm(np.zeros((5, 5))) - np.eye(5)) == 0.0


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        expm(np.full((3, 3), np.nan))


def test_norm_helpers():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert max_abs(m) == 4.0
