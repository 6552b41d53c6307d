"""Dense full-space model of the gate layer: the oracle the tests compare against.

Every operator here is a dim x dim matrix built by Kronecker products, the
textbook construction that the package avoids: fockscan applies the same
operators through one-mode ladder matrices, pair unitaries and one-mode
channel matrices.  The ED relations are measured here on the dense unitary, directly
as matrix identities, independently of gates.verify_ed's action on basis
states.
"""
import math

import numpy as np

from fockscan.fock import occupations, single_mode_ladder
from fockscan.linalg import expm, max_abs, unitarity_defect


def embed(op, mode, space):
    """A cutoff x cutoff matrix on one mode, identity on the others."""
    c, n = space.cutoff, space.n_modes
    return np.kron(np.kron(np.eye(c ** mode), op), np.eye(c ** (n - 1 - mode)))


def ladder(space, mode, raising=False):
    """Truncated lowering operator <k-1|a|k> = sqrt(k) on one mode (its adjoint if raising)."""
    a = embed(single_mode_ladder(space.cutoff), mode, space)
    return a.conj().T if raising else a


def number_operator(space, mode):
    return np.diag(occupations(space)[:, mode].astype(complex))


def displacement(space, mode, alpha):
    """D(alpha) = exp(alpha a^dag - alpha* a) on one mode."""
    a = ladder(space, mode)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def beamsplitter(space, spec):
    """exp(i theta (e^{i phi} a^dag b + e^{-i phi} a b^dag)) on the spec's two modes."""
    a, b = ladder(space, spec.mode_a), ladder(space, spec.mode_b)
    return expm(1j * spec.theta * (np.exp(1j * spec.phi) * (a.conj().T @ b)
                                   + np.exp(-1j * spec.phi) * (a @ b.conj().T)))


def ed_unitary(space, plan):
    """The plan's splitters multiplied out in time order."""
    u = np.eye(space.dim, dtype=complex)
    for spec in plan.sequence:
        u = beamsplitter(space, spec) @ u
    return u


def single_photon_matrix(u, space):
    """M[j, i] = <1_j| u |1_i>."""
    n = space.n_modes
    ones = [space.index_of([int(k == i) for k in range(n)]) for i in range(n)]
    return u[np.ix_(ones, ones)]


def ed_residuals(u, space):
    """The ED relations of a dense unitary on all N = space.n_modes modes, as residuals.

    conjugation: u a_0^dag u^dag = (1/sqrt N) sum a_n^dag on the columns of
    total occupation <= cutoff-2; dual: u^dag (sum a_n) u = sqrt(N) a_0 on
    total occupation <= cutoff-1; coefficient_column and sum_rule: the
    single-photon matrix against 1/sqrt(N) and the row sums 1 - 1/N.
    """
    n, c = space.n_modes, space.cutoff
    m = single_photon_matrix(u, space)
    totals = occupations(space).sum(axis=1)
    sym = sum(ladder(space, k, raising=True) for k in range(n)) / math.sqrt(n)
    conj = u @ ladder(space, 0, raising=True) @ u.conj().T - sym
    low_sum = sum(ladder(space, k) for k in range(n))
    dual = u.conj().T @ low_sum @ u - math.sqrt(n) * ladder(space, 0)
    rows = np.sum(np.abs(m[:, 1:]) ** 2, axis=1)
    return {
        "conjugation": max_abs(conj[:, totals <= c - 2]),
        "dual": max_abs(dual[:, totals <= c - 1]),
        "coefficient_column": max_abs(m[:, 0] - 1.0 / math.sqrt(n)),
        "sum_rule": max_abs(rows - (1.0 - 1.0 / n)),
        "unitarity": unitarity_defect(u),
    }


def liouvillian(space, noise):
    """The Lindblad dissipator as a dim^2 x dim^2 matrix on rho.ravel().

    Row-major vectorisation gives vec(A rho B) = kron(A, B^T) vec(rho), so
    each collapse operator A contributes kron(A, conj A) - (kron(A^dag A, 1)
    + kron(1, (A^dag A)^T)) / 2.
    """
    eye = np.eye(space.dim)
    out = np.zeros((space.dim ** 2,) * 2, dtype=complex)
    for mode in range(space.n_modes):
        for rate, op in ((noise.gamma_up[mode], ladder(space, mode, raising=True)),
                         (noise.gamma_down[mode], ladder(space, mode)),
                         (noise.gamma_phi[mode], number_operator(space, mode))):
            a = math.sqrt(rate) * op
            ada = a.conj().T @ a
            out += np.kron(a, a.conj()) - 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T))
    return out


def window_channel(space, noise, spec, duration):
    """A lossy window exp(duration (-i[H, .] + L)) as a dim^2 x dim^2 matrix on rho.ravel().

    L is the dense Liouvillian and H the splitter Hamiltonian, chosen so that
    beamsplitter(space, spec) = exp(-i H duration), or 0 when spec is None;
    row-major vectorisation gives vec([H, rho]) = (kron(H, 1) - kron(1, H^T))
    vec(rho).  Exponentiated by scipy.
    """
    from scipy.linalg import expm as scipy_expm

    gen = liouvillian(space, noise)
    if spec is not None:
        a, b = ladder(space, spec.mode_a), ladder(space, spec.mode_b)
        ham = -spec.theta / duration * (np.exp(1j * spec.phi) * (a.conj().T @ b)
                                        + np.exp(-1j * spec.phi) * (a @ b.conj().T))
        eye = np.eye(space.dim)
        gen = gen - 1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    return scipy_expm(duration * gen)


def strang_states(space, noise, rho0, dt, d_alphas, bounds, steps):
    """{step: rho} at the listed steps of the dense N-mode Strang integration.

    bounds are the Strang steps' end points in dt steps (ascending), and
    every listed step is one of them.  The step ending at bounds[j] spans h
    = (bounds[j] - bounds[j-1]) dt and is E(h/2) Ad(D(d_alphas[j])^{(x)N})
    E(h/2) with E(t) = expm(t L) of the dense Liouvillian and D(alpha) =
    expm(alpha (a^dag - a)) (both scipy), or E(h) alone when d_alphas is None.
    """
    from scipy.linalg import expm as scipy_expm

    gen, factors = liouvillian(space, noise), {}

    def factor(t):
        if t not in factors:
            factors[t] = scipy_expm(t * gen)
        return factors[t]

    a = single_mode_ladder(space.cutoff)
    v, done, out = rho0.ravel(), 0, {}
    for j, bound in enumerate(bounds):
        h = (bound - done) * dt
        if d_alphas is None:
            v = factor(h) @ v
        else:
            d = np.eye(1)
            for _ in range(space.n_modes):
                d = np.kron(d, scipy_expm(d_alphas[j] * (a.conj().T - a)))
            r = (factor(0.5 * h) @ v).reshape(space.dim, space.dim)
            v = factor(0.5 * h) @ (d @ r @ d.conj().T).ravel()
        if bound in steps:
            out[bound] = v.reshape(space.dim, space.dim)
        done = bound
    return out
