import math

import mpmath
import numpy as np
import pytest

from dense_model import displacement, ladder, number_operator
from fockscan.errors import DimensionCeilingExceeded, InvalidArgument
from fockscan.fock import HilbertSpace, number_state, occupations
from fockscan.lindblad import _leakage_probs, _top_levels
from fockscan.linalg import max_abs, unitarity_defect


def vacuum_state(space):
    return number_state(space, [0] * space.n_modes)


def leakage(space, psi):
    """Top-level population of a state vector, through the propagator's leakage monitor."""
    return _leakage_probs(np.abs(psi) ** 2, _top_levels(space))


class TestMakeSpace:
    def test_single_mode_dimension(self):
        assert HilbertSpace(1, 8).dim == 8

    def test_product_rule(self):
        assert HilbertSpace(2, 8).dim == 64

    def test_ceiling_exceeded(self):
        # 8**8 = 16,777,216 > 65,536
        with pytest.raises(DimensionCeilingExceeded):
            HilbertSpace(8, 8)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            HilbertSpace(0, 4)
        with pytest.raises(InvalidArgument):
            HilbertSpace(2, 1)

    def test_immutability(self):
        sp = HilbertSpace(2, 4)
        with pytest.raises(AttributeError):
            sp.cutoff = 5


class TestLadder:
    """The kron-embedded ladder operators of the dense test model."""

    def test_lowering_action(self):
        sp = HilbertSpace(1, 3)
        out = ladder(sp, 0) @ number_state(sp, [2])
        expected = math.sqrt(2) * number_state(sp, [1])
        assert np.allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    def test_raising_amplitude_sqrt_m_plus_1(self, m):
        sp = HilbertSpace(1, 8)
        out = ladder(sp, 0, raising=True) @ number_state(sp, [m])
        assert abs(np.vdot(number_state(sp, [m + 1]), out) - math.sqrt(m + 1)) < 1e-14

    def test_raising_annihilates_top_level(self):
        sp = HilbertSpace(1, 5)
        out = ladder(sp, 0, raising=True) @ number_state(sp, [4])
        assert np.linalg.norm(out) == 0.0

    def test_commutator_below_truncation(self):
        # [a, a^dag] = 1 on the subspace excluding the top two levels
        for n_modes, cutoff in [(1, 6), (2, 5), (3, 4)]:
            sp = HilbertSpace(n_modes, cutoff)
            a = ladder(sp, 0)
            comm = a @ a.conj().T - a.conj().T @ a
            low = occupations(sp)[:, 0] <= cutoff - 3
            assert max_abs((comm - np.eye(sp.dim))[np.ix_(low, low)]) <= 1e-12

    def test_disjoint_mode_operators_commute(self):
        sp = HilbertSpace(3, 3)
        rng = np.random.default_rng(3)
        ops = [ladder(sp, 0), ladder(sp, 1, raising=True), number_operator(sp, 2)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert max_abs(ops[i] @ ops[j] - ops[j] @ ops[i]) <= 1e-12
        del rng


class TestNumberState:
    def test_basis_vector_norm(self):
        sp = HilbertSpace(2, 4)
        psi = number_state(sp, [1, 0])
        assert np.linalg.norm(psi) == 1.0
        assert psi[sp.index_of([1, 0])] == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_repeated_raising_on_vacuum(self, m):
        sp = HilbertSpace(3, 6)
        adag = ladder(sp, 0, raising=True)
        vec = vacuum_state(sp)
        for _ in range(m):
            vec = adag @ vec
        vec /= math.sqrt(math.factorial(m))
        assert np.allclose(vec, number_state(sp, [m, 0, 0]), atol=1e-14)

    def test_vacuum_has_zero_occupation(self):
        sp = HilbertSpace(3, 4)
        vac = vacuum_state(sp)
        for mode in range(3):
            assert abs(np.vdot(vac, number_operator(sp, mode) @ vac)) == 0.0

    def test_invalid_occupation(self):
        sp = HilbertSpace(2, 3)
        with pytest.raises(InvalidArgument):
            number_state(sp, [3, 0])
        with pytest.raises(InvalidArgument):
            number_state(sp, [0])


class TestDisplacement:
    """The kron-embedded displacement of the dense test model."""

    def test_zero_alpha_is_identity(self):
        sp = HilbertSpace(1, 6)
        assert max_abs(displacement(sp, 0, 0.0) - np.eye(6)) < 1e-15

    def test_vacuum_overlap_closed_form(self):
        # <0|D(alpha)|0> = exp(-|alpha|^2 / 2), high-precision scalar oracle
        sp = HilbertSpace(1, 20)
        alpha = 0.3
        d = displacement(sp, 0, alpha)
        expected = float(mpmath.e ** (-mpmath.mpf("0.3") ** 2 / 2))
        assert abs(d[0, 0].real - expected) < 1e-8

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_weak_field_matrix_element(self, m):
        sp = HilbertSpace(1, 10)
        alpha = 1e-3
        d = displacement(sp, 0, alpha)
        elem = d[m + 1, m]
        assert abs(elem / (alpha * math.sqrt(m + 1)) - 1.0) < 1e-3

    def test_unitarity_at_large_alpha(self):
        sp = HilbertSpace(1, 12)
        for alpha in (0.4, 1.0, 0.7 + 0.5j):
            assert unitarity_defect(displacement(sp, 0, alpha)) <= 1e-10

    def test_inverse_composition(self):
        sp = HilbertSpace(2, 10)
        d_plus = displacement(sp, 1, 0.3)
        d_minus = displacement(sp, 1, -0.3)
        assert max_abs(d_plus @ d_minus - np.eye(sp.dim)) <= 1e-10


class TestLeakage:
    def test_vacuum(self):
        sp = HilbertSpace(2, 4)
        assert leakage(sp, vacuum_state(sp)) == 0.0

    def test_top_level(self):
        sp = HilbertSpace(2, 4)
        assert leakage(sp, number_state(sp, [3, 0])) == 1.0

    def test_displaced_vacuum_poisson_tail(self):
        # brute-force Poisson tail oracle: sum_{n >= cutoff-1} e^-x x^n / n!
        sp = HilbertSpace(1, 10)
        alpha = 0.1
        x = alpha ** 2
        tail = sum(math.exp(-x) * x ** n / math.factorial(n) for n in range(9, 40))
        leak = leakage(sp, displacement(sp, 0, alpha) @ vacuum_state(sp))
        assert leak < 1e-12
        assert leak <= tail * 1.5 + 1e-18

    def test_density_matrix_input(self):
        sp = HilbertSpace(1, 3)
        psi = number_state(sp, [2])
        diag = np.diag(np.outer(psi, psi.conj())).real
        assert _leakage_probs(diag, _top_levels(sp)) == 1.0


class TestDensityMatrix:
    def test_trace_and_hermiticity_checks(self):
        sp = HilbertSpace(1, 4)
        psi = number_state(sp, [1])
        rho = np.outer(psi, psi.conj())
        assert abs(np.trace(rho) - 1.0) < 1e-15
        assert max_abs(rho - rho.conj().T) < 1e-15
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_unitary_preserves_state_norm(self):
        sp = HilbertSpace(1, 12)
        psi = number_state(sp, [2])
        for alpha in (0.2, 0.5j):
            out = displacement(sp, 0, alpha) @ psi
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10
