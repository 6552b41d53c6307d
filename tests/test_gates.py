import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_model
from dense_model import beamsplitter, ed_residuals, ed_unitary, ladder
from fockscan.errors import InvalidArgument, UnsupportedCavityCount
from fockscan.fock import HilbertSpace, number_state, occupations
from fockscan.gates import (
    BeamsplitterSpec,
    EDPlan,
    apply_plan,
    apply_plan_rho,
    linear_plan,
    make_plan,
    pair_unitary,
    single_photon_matrix,
    verify_ed,
)
from fockscan.linalg import max_abs, unitarity_defect


def safe_columns(space):
    return occupations(space).sum(axis=1) <= space.cutoff - 2


class TestBeamsplitter:
    def test_spec_validation(self):
        with pytest.raises(InvalidArgument):
            BeamsplitterSpec(0, 0, 0.3, 0.0)
        with pytest.raises(InvalidArgument):
            BeamsplitterSpec(0, 1, math.nan, 0.0)

    def test_zero_angle_is_identity(self):
        sp = HilbertSpace(2, 4)
        u = beamsplitter(sp, BeamsplitterSpec(0, 1, 0.0, 0.3))
        assert max_abs(u - np.eye(sp.dim)) < 1e-14

    def test_fifty_fifty_conjugation(self):
        # theta = pi/4, phi = 0: a -> (a + i b)/sqrt(2) under U^dag a U
        sp = HilbertSpace(2, 5)
        u = beamsplitter(sp, BeamsplitterSpec(0, 1, math.pi / 4, 0.0))
        a = ladder(sp, 0)
        b = ladder(sp, 1)
        target = (a + 1j * b) / math.sqrt(2)
        cols = occupations(sp).sum(axis=1) <= sp.cutoff - 1
        assert max_abs((u.conj().T @ a @ u - target)[:, cols]) <= 1e-12

    def test_full_swap_with_phase(self):
        # theta = pi/2, phi = 0: a -> i b, b -> i a
        sp = HilbertSpace(2, 4)
        u = beamsplitter(sp, BeamsplitterSpec(0, 1, math.pi / 2, 0.0))
        a = ladder(sp, 0)
        b = ladder(sp, 1)
        cols = occupations(sp).sum(axis=1) <= sp.cutoff - 1
        assert max_abs((u.conj().T @ a @ u - 1j * b)[:, cols]) <= 1e-12
        assert max_abs((u.conj().T @ b @ u - 1j * a)[:, cols]) <= 1e-12

    def test_unitarity(self):
        sp = HilbertSpace(2, 6)
        for theta, phi in [(0.3, 0.1), (math.pi / 4, math.pi / 2), (1.3, -2.0)]:
            u = beamsplitter(sp, BeamsplitterSpec(0, 1, theta, phi))
            assert unitarity_defect(u) <= 1e-10
            assert unitarity_defect(pair_unitary(BeamsplitterSpec(0, 1, theta, phi), 6)) <= 1e-10


class TestPlans:
    def test_plan_sizes_and_depth(self):
        for n in (1, 2, 3, 5):
            plan = linear_plan(n)
            assert len(plan.sequence) == n - 1
            assert plan.depth == n - 1
        for n in (1, 2, 4, 8):
            plan = make_plan("binary", n)
            assert len(plan.sequence) == n - 1
            assert plan.depth == (n.bit_length() - 1)

    def test_binary_rejects_non_power_of_two(self):
        for n in (3, 5, 6, 12):
            with pytest.raises(UnsupportedCavityCount):
                make_plan("binary", n)

    def test_plan_validation(self):
        with pytest.raises(InvalidArgument):
            EDPlan("linear", 3, tuple())
        with pytest.raises(InvalidArgument):
            make_plan("ring", 4)

    def test_plan_built_once(self):
        # sweeps ask for the plan at every grid point
        assert make_plan("binary", 4) is make_plan("binary", 4)
        assert make_plan("linear", 3) is make_plan("linear", 3)
        assert make_plan("linear", 2) is not make_plan("binary", 2)
        # a raised error is not remembered: the same bad call raises again
        for _ in range(2):
            with pytest.raises(InvalidArgument):
                make_plan("ring", 4)
            with pytest.raises(UnsupportedCavityCount):
                make_plan("binary", 6)

    def test_duration_scaling(self):
        g_bs = 2 * math.pi * 1e6
        lin = linear_plan(4)
        binp = make_plan("binary", 4)
        assert lin.duration(g_bs) == pytest.approx(3 * max(s.theta for s in lin.sequence) / g_bs)
        assert binp.duration(g_bs) == pytest.approx(2 * (math.pi / 4) / g_bs)
        assert make_plan("binary", 1).duration(g_bs) == 0.0


class TestBuildEd:
    """The ED unitary multiplied out densely, and the plan's own coefficients."""

    def test_identity_for_single_cavity(self):
        sp = HilbertSpace(1, 4)
        plan = make_plan("linear", 1)
        assert plan.sequence == tuple()
        assert max_abs(ed_unitary(sp, plan) - np.eye(4)) == 0.0

    def test_two_cavity_coefficients(self):
        sp = HilbertSpace(2, 3)
        plan = make_plan("linear", 2)
        for m in (single_photon_matrix(plan, sp),
                  dense_model.single_photon_matrix(ed_unitary(sp, plan), sp)):
            assert max_abs(m[:, 0] - 1 / math.sqrt(2)) <= 1e-12

    def test_four_cavity_binary_coefficients(self):
        sp = HilbertSpace(4, 3)
        plan = make_plan("binary", 4)
        assert len(plan.sequence) == 3
        for m in (single_photon_matrix(plan, sp),
                  dense_model.single_photon_matrix(ed_unitary(sp, plan), sp)):
            assert max_abs(m[:, 0] - 0.5) <= 1e-12

    def test_mode_count_must_match(self):
        with pytest.raises(InvalidArgument):
            verify_ed(make_plan("linear", 2), HilbertSpace(3, 3), max_fock=1)
        with pytest.raises(InvalidArgument):
            single_photon_matrix(make_plan("linear", 2), HilbertSpace(3, 3))


class TestVerifyEd:
    def test_ideal_two_cavity_report(self):
        sp = HilbertSpace(2, 14)
        plan = linear_plan(2)
        rep = verify_ed(plan, sp, alpha=0.05, max_fock=3)
        assert rep.displacement_residual < 1e-9
        assert rep.conjugation_residual < 1e-9
        assert rep.sum_rule_residual < 1e-12
        assert rep.passed

    @pytest.mark.parametrize("n,scheme", [(2, "linear"), (2, "binary"), (4, "linear"), (4, "binary")])
    def test_sum_rule(self, n, scheme):
        sp = HilbertSpace(n, 4)
        plan = make_plan(scheme, n)
        dense = ed_residuals(ed_unitary(sp, plan), sp)
        assert dense["sum_rule"] < 1e-12
        assert dense["coefficient_column"] < 1e-12
        rep = verify_ed(plan, sp, max_fock=1)
        assert rep.sum_rule_residual < 1e-12
        assert rep.coefficient_column_residual < 1e-12

    def test_identity_flagged_as_violation(self):
        # zero-angle splitters make the identity; it must fail the relations
        sp = HilbertSpace(2, 6)
        spec = BeamsplitterSpec(0, 1, 0.0, math.pi / 2)
        rep = verify_ed(EDPlan("linear", 2, (spec,), ((spec,),)), sp, max_fock=1)
        assert rep.conjugation_residual > 0.1
        assert not rep.passed
        assert ed_residuals(np.eye(sp.dim), sp)["conjugation"] > 0.1

    def test_dual_relation(self):
        # U^dag (sum_n a_n) U = sqrt(N) a_0 within 1e-10
        sp = HilbertSpace(3, 4)
        plan = make_plan("linear", 3)
        assert ed_residuals(ed_unitary(sp, plan), sp)["dual"] <= 1e-10
        assert verify_ed(plan, sp, max_fock=1).dual_residual <= 1e-10

    def test_linear_and_binary_agree(self):
        sp = HilbertSpace(4, 10)
        for scheme in ("linear", "binary"):
            rep = verify_ed(make_plan(scheme, 4), sp, alpha=0.05, max_fock=2)
            assert rep.passed, scheme

    def test_enhancement_on_generic_basis_states(self):
        # the displacement identity is an operator identity up to truncation,
        # so it holds on every basis state with enough headroom
        sp = HilbertSpace(2, 12)
        plan = linear_plan(2)
        alpha = 0.05
        from fockscan.fock import single_mode_ladder
        from fockscan.linalg import expm
        from fockscan.tensorops import apply_to_vector

        a = single_mode_ladder(sp.cutoff)
        d1 = expm(alpha * (a.conj().T - a))
        d_main = expm(math.sqrt(2) * alpha * (a.conj().T - a))
        # photon bunching under the gate can pile the whole total into one
        # mode, so the headroom condition is on the total occupation
        occ = occupations(sp)
        for idx in np.flatnonzero(occ.sum(axis=1) <= sp.cutoff - 7):
            psi = np.zeros(sp.dim, dtype=complex)
            psi[idx] = 1.0
            inside = apply_plan(psi, plan, sp)
            for mode in (0, 1):
                inside = apply_to_vector(d1, inside, (mode,), sp)
            lhs = apply_plan(inside, plan, sp, inverse=True)
            rhs = apply_to_vector(d_main, psi, (0,), sp)
            assert np.linalg.norm(lhs - rhs) < 1e-4


class TestRandomPlans:
    """Random accepted (scheme, N <= 4) plans through verify_ed, at cutoffs 3-6.

    The displacement residual is truncation-limited below cutoff 8, so it is
    not asserted; the other residuals do not depend on the truncation.
    """

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["linear", "binary"]), st.integers(1, 4), st.integers(3, 6),
           st.data())
    def test_truncation_free_residuals(self, scheme, n, cutoff, data):
        try:
            plan = make_plan(scheme, n)
        except UnsupportedCavityCount:
            assume(False)
        space = HilbertSpace(n, cutoff)
        rep = verify_ed(plan, space, max_fock=data.draw(st.integers(0, cutoff - 2)))
        for residual in (rep.unitarity_residual, rep.conjugation_residual, rep.dual_residual,
                         rep.coefficient_column_residual, rep.sum_rule_residual):
            assert residual <= 1e-12
        if n == 1:
            return
        # one splitter's angle raised by 1e-6 moves the primary photon's amplitudes
        k = data.draw(st.integers(0, n - 2))
        sequence = list(plan.sequence)
        sequence[k] = replace(sequence[k], theta=sequence[k].theta + 1e-6)
        bent = replace(plan, sequence=tuple(sequence))
        assert verify_ed(bent, space, max_fock=1).coefficient_column_residual > 1e-8


class TestPlanApplication:
    # (scheme, N, cutoff): every linear N up to 4 and every binary N
    PLAN_CASES = [("linear", 1, 4), ("linear", 2, 4), ("linear", 3, 4), ("linear", 4, 3),
                  ("binary", 1, 4), ("binary", 2, 4), ("binary", 4, 3)]

    def test_vector_and_rho_paths_agree_with_dense(self):
        rng = np.random.default_rng(0)
        for scheme, n, cutoff in self.PLAN_CASES:
            sp = HilbertSpace(n, cutoff)
            plan = make_plan(scheme, n)
            u = ed_unitary(sp, plan)
            psi = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            for got, want in (
                (apply_plan(psi, plan, sp), u @ psi),
                (apply_plan(psi, plan, sp, inverse=True), u.conj().T @ psi),
                (apply_plan_rho(rho, plan, sp), u @ rho @ u.conj().T),
                (apply_plan_rho(rho, plan, sp, inverse=True), u.conj().T @ rho @ u),
            ):
                assert np.abs(got - want).max() <= 1e-12, (scheme, n)

    def test_plan_and_space_must_agree(self):
        for plan, sp in ((linear_plan(2), HilbertSpace(3, 3)), (linear_plan(3), HilbertSpace(2, 3))):
            psi = number_state(sp, [1] + [0] * (sp.n_modes - 1))
            for inverse in (False, True):
                with pytest.raises(InvalidArgument):
                    apply_plan(psi, plan, sp, inverse)
                with pytest.raises(InvalidArgument):
                    apply_plan_rho(np.outer(psi, psi.conj()), plan, sp, inverse)

    def test_distributed_fock_state(self):
        # U_ED |m,0> puts the photons in the symmetric mode
        sp = HilbertSpace(2, 5)
        plan = linear_plan(2)
        psi = apply_plan(number_state(sp, [1, 0]), plan, sp)
        expected = (number_state(sp, [1, 0]) + number_state(sp, [0, 1])) / math.sqrt(2)
        assert np.allclose(psi, expected, atol=1e-12)
