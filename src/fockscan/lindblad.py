"""Lindblad propagation of the detection cycle.

During the integration window every cavity carries its own collapse
channels sqrt(gamma_up) a^dag, sqrt(gamma_down) a and sqrt(gamma_phi) a^dag a,
and the drive displaces every cavity by the same real amplitude.  Signal
runs switch heating off; background runs switch the drive off; total counts
are assembled downstream.  The generator is thus a sum of single-mode
generators, which commute, so the window's N-mode channel is a product of
one-mode channels:

    rho(t) = (Phi_0(t) (x) ... (x) Phi_{N-1}(t)) rho_0.

Every map the engine applies preserves Hermiticity: the dissipator
semigroup, the displacement Ad(D) and the readout Re Tr(O rho).  So it runs
in real coordinates.  Each cavity's operators X have the coordinates
x_k = Tr(G_k X) in one fixed real orthonormal basis of Hermitian matrices
per cutoff, the generalised Gell-Mann basis (Bertlmann & Krammer, J. Phys.
A 41, 235303, 2008) up to order and sign (_hermitian_basis): for each level
pair i < j, adjacent, (E_ij + E_ji)/sqrt(2) and i(E_ij - E_ji)/sqrt(2),
whose coordinates are sqrt(2) Re X_ij and sqrt(2) Im X_ij; then the diagonal
E_kk.  A Hermitian X has real coordinates, and the N-mode rho has a real
coordinate tensor with one cutoff^2 axis per cavity, on which the window's
channel acts as Phi_0 (x) ... (x) Phi_{N-1}.

_mode_channels computes one cavity's Phi as a real cutoff^2 x cutoff^2
matrix on its coordinates, at the record steps only; cavities with equal
rates share one run.  _run_cycle turns rho_0 and the readout O into
coordinate tensors once per run.  Phi_i only meets the span of rho_0's
tensor unfolded over mode i's axis (a cutoff^2-row matrix), which the other
modes' channels leave in place, so the engine evolves Phi on an orthonormal
basis B of that span, a real cutoff^2 x r block, and contracts rho_0's
tensor with every B_i^T once, into a core of shape r_0 x ... x r_{N-1}.  B
is one vector for any one-mode rho_0, at most (m+1)^2 for a distributed
m-photon state and cutoff^2 for a full-rank rho_0; a step costs cutoff^4
flops per basis vector.  Each record contracts the core with the blocks
Phi_i B_i into the coordinate tensor of rho(t), reads the population as its
dot product with O's, and the trace and leakage from its diagonal slice.  No
record forms a channel matrix or the N-mode density matrix; final_state is
built once, from the last record.

* E(t) = exp(t L) of the one-mode dissipator superoperator L is exact.  L is
  built as a cutoff^2 x cutoff^2 matrix on rho.ravel() from Kronecker
  products of the one-mode collapse operators (_generator).  E(t) is the
  exponential of its real form T^H L T, T the unitary whose columns are the
  raveled basis matrices, and is cached per cutoff, rate triple, t and basis
  (_factor).  E(t) is completely positive (CP) for every t >= 0, being the
  semigroup of a Lindblad generator.
* A drive-free run has a constant generator, so Phi(t_j) = E(t_j - t_{j-1})
  Phi(t_{j-1}) is exact.  The rounded record intervals differ, so E is
  computed once per distinct interval.
* A driven run takes Strang steps E(h/2) Ad(D(d_alpha)) E(h/2), where
  Ad(D) X = D X D^dag and d_alpha = drive_amp (<|alpha|>(t + h) -
  <|alpha|>(t)) for the step from t to t + h.  Each factor is CP (a
  semigroup element or a unitary conjugation), so every step is CP.  The
  splitting is symmetric, so it is second order: the error at fixed t is
  O(h^2).  Adjacent half steps merge into one factor (first same as last).
  In the eigenbasis of i(a^dag - a), D(alpha) = Q e^{-i Lambda alpha}
  Q^dag, so Ad(D) multiplies each entry X_ij of Q^dag X Q by
  e^{-i alpha (lambda_i - lambda_j)}: it rotates each pair of coordinates
  and leaves the diagonal alone.  The engine keeps the block transposed,
  one row per basis vector, so a step is two numpy calls: a real matmul
  into a preallocated buffer, then an in-place multiply of the rows' pair
  coordinates, viewed as complex numbers sqrt(2) X_ij, by their phases.
  The factors are built in that basis (_generator with eigen), and one real
  orthogonal matrix (_eigen_rotation) takes the block into it and out of
  it.  The phases of a record interval's steps come from one exp of the
  outer product of their -i d_alpha with the eigenvalue differences, and
  the merged half factors from a per-run dict keyed by their length in dt
  steps.  Without channels (E = 1) the displacements compose exactly.

A run counts n_steps = round(tau_int / dt) steps of dt, the record-time
quantum: its record times are rounded to whole steps.  A driven Strang step
spans up to STRIDE of them: _boundaries splits each record interval of n
steps into ceil(n / STRIDE) steps whose sizes differ by at most one.

Readouts are taken in the Heisenberg picture.  A lossy inverse gate is a
fixed, drive-free linear map G, so instead of pushing every recorded state
through it, the readout projector O is pulled back once through its adjoint
G^dag and each record reads Re Tr(G^dag(O) rho).  With the Hilbert-Schmidt
inner product Tr(X^dag Y) = vec(X)^H vec(Y), the adjoint of a channel
matrix E is its conjugate transpose E^H, and that of Ad(U) is Ad(U^dag).

Both backends are this one machinery run on different inputs:

* the full tensor-product model (practical for N <= 3 at cutoff m+4) runs
  on HilbertSpace(N, cutoff) with the per-cavity noise model and drive
  scale 1;
* the effective single-mode model, valid for any N, runs on
  HilbertSpace(1, cutoff) with effective_noise_model(rates), the channel
  algebra induced by conjugating the per-cavity channels with the
  distribution gate (heating at the averaged rate; decay and the
  photon-swap part of dephasing combined into a lowering channel at
  bar_down + (1 - 1/N) bar_phi; the 1/N dephasing remnant kept), and the
  collective drive concentrated on the primary mode, scaled by sqrt(N).

propagate_cycle and effective_propagate_cycle only build their space,
noise model, drive scale, initial state and readout; _run_cycle does the
rest.  They are the only callers of _run_cycle, so every run the CLI makes
reaches the engine through one of them.

Beamsplitter infidelity is modelled by lossy windows: each window evolves
under elevated noise, with its splitter Hamiltonian or none, for a given
duration.  Elevation raises decay and dephasing by a common multiplier,
calibrated so a single photon survives a full swap with the requested
probability; heating keeps its base rate.  The full model has one window per
splitter, in which the two coupled cavities carry the elevated rates
(lossy_ed_apply).  The effective model has one window per layer of the
binary tree on its one mode (effective_lossy_window): every occupied cavity
sits inside an elevated pair during each layer, so the averaged rates are
the base rates, decay and dephasing times the multiplier.

The calibration (calibrate_bs_multiplier) returns the result of a plain
bracket-and-bisect search on the swap fidelity of one photon at cutoff 3
(swap_fidelity).  It assumes that the fidelity falls as the multiplier
grows: each bisection test is answered from the largest multiplier already
seen above the target and the smallest seen at or below it, and secant
steps taken first place two evaluations within 1e-9 of the root, so the
search evaluates the fidelity about 7 times instead of about 28.

A window's channels commute with each other and with the splitter on every
cavity outside its pair, so each such cavity takes its exact factor
E_i(duration) once, as the complex channel T E_i T^H on rho.ravel()
(tensorops.apply_channel); an effective-model window, which has no splitter, is
therefore exact.  The pair takes n_sub = max(64, ceil(duration rate /
2e-3)) symmetric Strang steps E(h/2) Ad(U_sub) E(h/2), h = duration /
n_sub, with adjacent half steps merged and U_sub the exact splitter unitary
for theta / n_sub; every factor is CP and the error is O(h^2).  The adjoint
window is the same sequence with E^H and U_sub^dag.  _run_windows runs a
window list forward or adjoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .drive import mean_displacement
from .errors import FidelityUnreachable, InvalidArgument, StabilityGuard, TruncationLeak
from .fock import HilbertSpace, number_state, occupations, single_mode_ladder
from .gates import BeamsplitterSpec, EDPlan, apply_plan, apply_plan_rho, pair_unitary
from .linalg import expm
from .tensorops import apply_channel, apply_left, apply_right_dag

DEFAULT_LEAK_TOL = 1e-6
STRIDE = 10  # dt steps per driven Strang step, at most (see the module docstring)
STABILITY_LIMIT = 0.05
CALIBRATION_REL_TOL = 1e-6
SECANT_STEPS = 8  # at most


@dataclass(frozen=True)
class NoiseModel:
    """Per-cavity heating / decay / dephasing rates (rad/s), length N each."""

    gamma_up: tuple
    gamma_down: tuple
    gamma_phi: tuple

    def __post_init__(self):
        ups = tuple(float(x) for x in self.gamma_up)
        downs = tuple(float(x) for x in self.gamma_down)
        phis = tuple(float(x) for x in self.gamma_phi)
        if not len(ups) == len(downs) == len(phis):
            raise InvalidArgument("rate lists must share one length")
        if len(ups) == 0:
            raise InvalidArgument("need at least one cavity")
        if any(x < 0 for x in ups + downs + phis):
            raise InvalidArgument("rates must be non-negative")
        object.__setattr__(self, "gamma_up", ups)
        object.__setattr__(self, "gamma_down", downs)
        object.__setattr__(self, "gamma_phi", phis)

    @property
    def n_cavities(self) -> int:
        return len(self.gamma_up)

    @classmethod
    def uniform(cls, n: int, gamma_up: float, gamma_down: float, gamma_phi: float) -> "NoiseModel":
        return cls((gamma_up,) * n, (gamma_down,) * n, (gamma_phi,) * n)

    def heating_off(self) -> "NoiseModel":
        return NoiseModel((0.0,) * self.n_cavities, self.gamma_down, self.gamma_phi)

    def elevated(self, multiplier: float, modes) -> "NoiseModel":
        """Scale the decay and dephasing rates of the listed cavities by a common multiplier.

        Heating keeps its base rate: a splitter window elevates only the loss channels.
        """
        modes = set(modes)
        down = tuple(g * multiplier if i in modes else g for i, g in enumerate(self.gamma_down))
        phi = tuple(g * multiplier if i in modes else g for i, g in enumerate(self.gamma_phi))
        return NoiseModel(self.gamma_up, down, phi)


@dataclass(frozen=True)
class TransformedRates:
    """Effective primary-cavity rates after conjugation by the ED gate."""

    n_cavities: int
    fock_m: int
    bar_gamma_up_1: float
    bar_gamma_down: float
    bar_gamma_phi: float

    @property
    def gamma_down_eff(self) -> float:
        return self.bar_gamma_down + (1.0 - 1.0 / self.n_cavities) * self.bar_gamma_phi


def transformed_rates(n_cavities: int, noise: NoiseModel, m: int) -> TransformedRates:
    if noise.n_cavities != n_cavities:
        raise InvalidArgument("noise model length must equal n_cavities")
    if m < 0:
        raise InvalidArgument("fock_m must be >= 0")
    up, down, phi = _mean_pair_rates(noise)
    return TransformedRates(
        n_cavities=n_cavities,
        fock_m=m,
        bar_gamma_up_1=up,
        bar_gamma_down=down,
        bar_gamma_phi=phi,
    )


def default_dt(tau_dm: float, total_rate: float) -> float:
    """min(tau_dm/200, 0.02/total_rate): the record-time quantum and the stability guard's step.

    Dissipation is exact, and a driven Strang step spans up to STRIDE of
    these steps: at tau_dm/200 and the reference rates, populations to 40
    tau_dm lie within 3e-6 relative of one Strang step per dt.
    """
    dt = tau_dm / 200.0
    if total_rate > 0:
        dt = min(dt, 0.02 / total_rate)
    return dt


def _mode_rates(noise: NoiseModel, space: HilbertSpace) -> list[tuple[float, float, float]]:
    """Each cavity's (gamma_up, gamma_down, gamma_phi), one per mode of space."""
    if noise.n_cavities != space.n_modes:
        raise InvalidArgument("noise model length must equal the space's mode count")
    return list(zip(noise.gamma_up, noise.gamma_down, noise.gamma_phi))


def _total_rate(noise: NoiseModel, cutoff: int) -> float:
    """Largest diagonal entry of sum_A A^dag A over the product basis.

    Each cavity's entry depends on its own occupation k only, as gamma_up
    (k+1) (0 at the top level, where the truncated a^dag vanishes) plus
    gamma_down k plus gamma_phi k^2, so the largest is the sum of the
    cavities' largest.
    """
    k = np.arange(cutoff, dtype=float)
    return sum(
        float((np.where(k < cutoff - 1, up * (k + 1.0), 0.0) + down * k + phi * k ** 2).max())
        for up, down, phi in zip(noise.gamma_up, noise.gamma_down, noise.gamma_phi)
    )


def _generator(cutoff: int, rates: tuple[float, float, float], eigen: bool = False) -> np.ndarray:
    """One cavity's dissipator L as a cutoff^2 x cutoff^2 matrix on rho.ravel().

    rates is (gamma_up, gamma_down, gamma_phi), with collapse operators
    sqrt(gamma_up) a^dag, sqrt(gamma_down) a and sqrt(gamma_phi) a^dag a.
    Row-major vectorisation gives vec(A rho B) = kron(A, B^T) vec(rho), so
    each A adds kron(A, conj A) - (kron(A^dag A, 1) + kron(1, (A^dag A)^T)) / 2.
    With eigen, L acts on vec(Q^dag rho Q) instead, Q the eigenvectors of
    i(a^dag - a): the same sum over the rotated operators Q^dag A Q.
    """
    a = single_mode_ladder(cutoff)
    ops = (a.conj().T, a, a.conj().T @ a)
    if eigen:
        q = _displacement_eigensystem(cutoff)[1]
        ops = tuple(q.conj().T @ op @ q for op in ops)
    eye = np.eye(cutoff)
    gen = np.zeros((cutoff * cutoff,) * 2, dtype=complex)
    for rate, op in zip(rates, ops):
        if rate > 0:
            jump = math.sqrt(rate) * op
            ada = jump.conj().T @ jump
            gen += _kron(jump, jump.conj()) - 0.5 * (_kron(ada, eye) + _kron(eye, ada.T))
    return gen


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two square matrices, as one broadcast product and a reshape.

    Each entry is the single product a[i, j] b[k, l], as in np.kron.
    """
    n, k = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * k, n * k)


@lru_cache(maxsize=64)
def _factor(cutoff: int, rates: tuple[float, float, float], t: float,
            eigen: bool = False) -> np.ndarray:
    """E(t) = exp(t L) of one cavity's dissipator on its Hermitian coordinates, real, read-only.

    L is _generator's, in its real form (see _hermitian_basis).
    """
    out = expm(t * _real_form(_generator(cutoff, rates, eigen)))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _hermitian_basis(cutoff: int) -> np.ndarray:
    """T, whose column k is G_k.ravel() for the k-th real orthonormal Hermitian basis matrix G_k.

    For each level pair i < j, in np.triu_indices order, two adjacent
    columns, (E_ij + E_ji) / sqrt(2) and i (E_ij - E_ji) / sqrt(2), whose
    coordinates are sqrt(2) Re X_ij and sqrt(2) Im X_ij; then the diagonal
    E_kk (see the module docstring).  T is unitary, the coordinates of a
    Hermitian X are the real vector T^H X.ravel(), and a superoperator on
    rho.ravel() that preserves Hermiticity acts on them as a real matrix
    (_real_form).  Read-only.
    """
    c = cutoff
    rows, cols = np.triu_indices(c, 1)
    pairs = 2 * np.arange(len(rows))
    out = np.zeros((c * c, c * c), dtype=complex)
    out[rows * c + cols, pairs] = out[cols * c + rows, pairs] = math.sqrt(0.5)
    out[rows * c + cols, pairs + 1] = 1j * math.sqrt(0.5)
    out[cols * c + rows, pairs + 1] = -1j * math.sqrt(0.5)
    out[np.arange(c) * (c + 1), np.arange(c * c - c, c * c)] = 1.0
    out.setflags(write=False)
    return out


def _real_form(superop: np.ndarray) -> np.ndarray:
    """T^H S T of a Hermiticity-preserving superoperator S on rho.ravel(), imaginary part dropped."""
    herm = _hermitian_basis(math.isqrt(len(superop)))
    return np.ascontiguousarray((herm.conj().T @ superop @ herm).real)


@lru_cache(maxsize=32)
def _displacement_eigensystem(cutoff: int):
    """Eigendecomposition of i(a^dag - a); exp(alpha(a^dag - a)) = Q e^{-i L alpha} Q^dag."""
    a = single_mode_ladder(cutoff)
    herm = 1j * (a.conj().T - a)
    vals, vecs = np.linalg.eigh(herm)
    return vals, vecs


@lru_cache(maxsize=32)
def _eigen_rotation(cutoff: int) -> np.ndarray:
    """R, real orthogonal: R y are the Hermitian coordinates of Q Y Q^dag when y are Y's, read-only.

    Q is the eigenvector matrix of i(a^dag - a) (_displacement_eigensystem),
    so R takes coordinates out of the displacement eigenbasis and R^T into it.
    """
    q = _displacement_eigensystem(cutoff)[1]
    out = _real_form(_kron(q, q.conj()))
    out.setflags(write=False)
    return out


def _contract(tensor: np.ndarray, mats) -> np.ndarray:
    """tensor with mats[k] applied to every fibre along axis k (mats[k] @ fibre), one per axis.

    Each product contracts the leading axis and appends the new one, so
    after one matrix per axis the axes are back in order.
    """
    for mat in mats:
        tensor = (tensor.reshape(len(tensor), -1).T @ mat.T).reshape(*tensor.shape[1:], len(mat))
    return tensor


def _coordinates(op: np.ndarray, space: HilbertSpace) -> np.ndarray:
    """The real Hermitian coordinates of a Hermitian operator on space: one cutoff^2 axis per mode."""
    c, n = space.cutoff, space.n_modes
    paired = op.reshape((c,) * (2 * n)).transpose([a for m in range(n) for a in (m, n + m)])
    herm_dag = _hermitian_basis(c).conj().T
    return np.ascontiguousarray(_contract(paired.reshape((c * c,) * n), [herm_dag] * n).real)


def _operator(coords: np.ndarray, space: HilbertSpace) -> np.ndarray:
    """The dim x dim operator on space with the given Hermitian coordinates (see _coordinates)."""
    c, n = space.cutoff, space.n_modes
    op = _contract(coords, [_hermitian_basis(c)] * n).reshape((c,) * (2 * n))
    return op.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(space.dim, space.dim)


def _check_stability(dt: float, total_rate: float) -> None:
    if dt * total_rate >= STABILITY_LIMIT:
        raise StabilityGuard(
            f"dt*max_rate = {dt * total_rate:.3g} exceeds {STABILITY_LIMIT}"
        )


@dataclass
class PropagationResult:
    """Time series from one populate run, plus propagation diagnostics."""

    times: np.ndarray
    population: np.ndarray
    trace_defect: np.ndarray
    leakage: np.ndarray
    dt: float
    n_steps: int
    final_state: np.ndarray


def _top_levels(space: HilbertSpace) -> list[np.ndarray]:
    """Per mode, the mask of the product basis states at that mode's top Fock level."""
    top = occupations(space) == (space.cutoff - 1)
    return [top[:, m] for m in range(space.n_modes)]


def _leakage_probs(diag: np.ndarray, tops: list[np.ndarray]) -> float:
    """Population at the top Fock level of each mode (tops from _top_levels), summed.

    The truncation's validity monitor.
    """
    return float(sum(diag[top].sum() for top in tops))


def _span(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis B of the column span of a, and the norms of the rows of B^dag a.

    B holds the eigenvectors of a a^dag onto which a projects with more than
    max(a.shape) eps of its largest such norm.  The norms are taken from a
    itself, not from the eigenvalues, so what is dropped is measured to
    rounding, not to its square root.
    """
    _, vecs = np.linalg.eigh(a @ a.conj().T)
    norms = np.linalg.norm(vecs.conj().T @ a, axis=1)
    keep = norms > norms.max() * max(a.shape) * np.finfo(float).eps
    return vecs[:, keep], norms[keep]


def _boundaries(steps) -> list[int]:
    """The driven Strang steps' end points, in dt steps, for record steps (ascending, >= 1).

    Each record interval of n steps splits into ceil(n / STRIDE) Strang
    steps whose sizes differ by at most one, so every record step is a
    boundary and no Strang step spans more than STRIDE steps.
    """
    out, done = [], 0
    for step in steps:
        n = step - done
        q = -(-n // STRIDE)
        out += [done + k * n // q for k in range(1, q + 1)]
        done = step
    return out


def _mode_channels(cutoff: int, rates, dt: float, drive, steps, basis: np.ndarray):
    """Yield Phi(s dt) @ basis for one cavity at each record step s of steps (ascending, >= 1).

    Phi is the real cutoff^2 x cutoff^2 matrix acting on one cavity's
    Hermitian coordinates (see _hermitian_basis) with the given rates, and
    basis is real with cutoff^2 rows (see _run_cycle).  drive is (bounds,
    d_alphas), the Strang steps' end points _boundaries(steps) as a list
    and the array of their displacements, or None for a drive-free run (see
    the module docstring).  A driven run evolves the block transposed, one
    row per basis vector, so that each row's (Re, Im) pair coordinates are
    adjacent and take their phases as complex numbers.
    """
    if drive is None:
        phi, done = basis, 0
        for step in steps:
            phi, done = _factor(cutoff, rates, (step - done) * dt) @ phi, step
            yield phi
        return
    vals, _ = _displacement_eigensystem(cutoff)
    rows, cols = np.triu_indices(cutoff, 1)
    freqs, pairs = vals[rows] - vals[cols], 2 * len(rows)
    rot = _eigen_rotation(cutoff)
    bounds, d_alphas = drive
    halves = {}  # E(k dt / 2)^T in the eigenbasis, per k, contiguous for the row-major product

    def half(k):
        if k not in halves:
            halves[k] = np.ascontiguousarray(_factor(cutoff, rates, 0.5 * k * dt, True).T)
        return halves[k]

    psi, done, size, first = basis.T @ rot, 0, 0, 0
    buf = np.empty_like(psi)
    for step in steps:
        last = bounds.index(step, first) + 1
        phases = np.exp(np.multiply.outer(-1j * d_alphas[first:last], freqs))
        for bound, phase in zip(bounds[first:last], phases):
            # the previous step's closing half merged with this step's opening half
            np.matmul(psi, half(size + bound - done), out=buf)
            pair_coords = buf[:, :pairs].view(complex)
            pair_coords *= phase
            psi, buf = buf, psi
            done, size = bound, bound - done
        first = last
        yield (psi @ half(size) @ rot.T).T


def _primary_states(space: HilbertSpace, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The vectors |m, 0, ..., 0> and |m+1, 0, ..., 0> of a space."""
    rest = [0] * (space.n_modes - 1)
    return number_state(space, [m] + rest), number_state(space, [m + 1] + rest)


def _run_cycle(
    space: HilbertSpace,
    noise: NoiseModel,
    drive_scale: float,
    rho0: np.ndarray,
    readout: np.ndarray,
    g: float,
    tau_dm: float,
    tau_int: float,
    populate: str,
    dt: float | None = None,
    leak_tol: float = DEFAULT_LEAK_TOL,
    record_times=(),
) -> PropagationResult:
    """One populate run of either backend: (x)_i Phi_i applied to rho0 at each record step.

    Reads readout at t = 0, at each of record_times (rounded to whole dt
    steps) inside the run, and at its end: a state vector t as <t|rho|t>, or
    a Hermitian observable O (a matrix) as Re Tr(O rho).  rho0 is Hermitian;
    both are read only as real coordinate tensors (see the module
    docstring), and final_state is the state at the last record.  Signal
    runs drive with heating disabled; background runs heat with the drive
    off.  drive_scale multiplies every displacement increment.  One
    _mode_channels run serves every cavity with the same rates; n_steps is
    the number of dt steps.
    """
    if populate not in ("signal", "background"):
        raise InvalidArgument("populate must be 'signal' or 'background'")
    signal = populate == "signal"
    if signal:
        noise = noise.heating_off()
    c, n = space.cutoff, space.n_modes
    groups: dict[tuple, list[int]] = {}
    for mode, rates in enumerate(_mode_rates(noise, space)):
        groups.setdefault(rates, []).append(mode)
    total_rate = _total_rate(noise, c)
    if dt is None:
        dt = default_dt(tau_dm, total_rate)
    _check_stability(dt, total_rate)
    n_steps = max(1, int(round(tau_int / dt))) if tau_int > 0 else 0
    record_steps = {int(round(t / dt)) for t in np.asarray(record_times, dtype=float)}
    steps = sorted({s for s in record_steps if 0 < s < n_steps} | {n_steps}) if n_steps else []
    coords = _coordinates(rho0, space)
    obs = _coordinates(np.outer(readout, readout.conj()) if readout.ndim == 1 else readout, space)
    times, pops, traces, leaks = [], [], [], []
    tops = _top_levels(space)
    diagonal = (slice(c * c - c, None),) * n  # the E_kk coordinates of every mode

    def record(step, coords):
        t = step * dt
        times.append(t)
        pops.append(float(np.vdot(obs, coords)))
        diag = coords[diagonal].ravel()
        traces.append(abs(diag.sum() - 1.0))
        leak = _leakage_probs(diag, tops)
        leaks.append(leak)
        if leak > leak_tol:
            raise TruncationLeak(
                f"leakage {leak:.3g} exceeded budget {leak_tol:g} at t = {t:.3g} s"
            )

    drive = None
    if signal and g:
        bounds = _boundaries(steps)
        amps = mean_displacement(g, tau_dm, np.array([0] + bounds) * dt)
        drive = bounds, drive_scale * np.diff(amps)
    engines, bases, owner = [], [None] * n, [0] * n
    for group, (rates, modes) in enumerate(groups.items()):
        # the span of rho_0's unfoldings over each mode's axis, joined from
        # each mode's basis weighted by its norms (see the module docstring)
        spans = [_span(np.moveaxis(coords, mode, 0).reshape(c * c, -1)) for mode in modes]
        basis, _ = _span(np.hstack([u * s for u, s in spans]))
        engines.append(_mode_channels(c, rates, dt, drive, steps, basis))
        for mode in modes:
            bases[mode], owner[mode] = basis.T, group
    core = _contract(coords, bases)
    record(0, coords)
    for step, *blocks in zip(steps, *engines):
        coords = _contract(core, [blocks[group] for group in owner])
        record(step, coords)
    return PropagationResult(
        times=np.asarray(times),
        population=np.asarray(pops),
        trace_defect=np.asarray(traces),
        leakage=np.asarray(leaks),
        dt=dt,
        n_steps=n_steps,
        final_state=_operator(coords, space),
    )


def propagate_cycle(
    space: HilbertSpace,
    m: int,
    noise: NoiseModel,
    g: float,
    tau_dm: float,
    tau_int: float,
    populate: str,
    ed: EDPlan | None = None,
    dt: float | None = None,
    rho0: np.ndarray | None = None,
    leak_tol: float = DEFAULT_LEAK_TOL,
    record_times=(),
    readout: np.ndarray | None = None,
) -> PropagationResult:
    """Integration-window propagation of the full tensor-product model.

    Starts from the distributed state U_ED |m,0,...,0> (or a supplied rho0,
    e.g. one degraded by a lossy distribution gate) and tracks the target
    projector expectation after the inverse gate, i.e. the overlap with
    U_ED |m+1,0,...,0>.  A supplied readout (a Hermitian observable, e.g.
    the target projector pulled back through a lossy inverse gate) is read
    instead.  Signal runs drive with heating disabled; background runs heat
    with the drive off.  Records are taken at t = 0, at record_times and at
    tau_int (see _run_cycle).
    """
    if m < 0 or m + 1 >= space.cutoff:
        raise InvalidArgument("need fock_m >= 0 and cutoff > m+1")
    psi0, target = _primary_states(space, m)
    if rho0 is None:
        psi0 = psi0 if ed is None else apply_plan(psi0, ed, space)
        rho0 = np.outer(psi0, psi0.conj())
    if readout is None:
        readout = target if ed is None else apply_plan(target, ed, space)
    return _run_cycle(
        space, noise, 1.0, rho0, readout, g, tau_dm, tau_int, populate, dt, leak_tol, record_times,
    )


def effective_noise_model(rates: TransformedRates) -> NoiseModel:
    """Single-mode noise model equivalent to the transformed channels.

    A lowering channel at bar_down + (1-1/N) bar_phi reproduces both the
    |m> depletion (m x rate) and the |m+1> decay ((m+1) x rate); heating
    enters at the averaged rate.  The 1/N remnant of the dephasing channel
    stays a pure dephasing on the primary mode.
    """
    return NoiseModel(
        (rates.bar_gamma_up_1,),
        (rates.gamma_down_eff,),
        (rates.bar_gamma_phi / rates.n_cavities,),
    )


def effective_propagate_cycle(
    n_cavities: int,
    m: int,
    rates: TransformedRates,
    g: float,
    tau_dm: float,
    tau_int: float,
    populate: str,
    dt: float | None = None,
    cutoff: int | None = None,
    leak_tol: float = DEFAULT_LEAK_TOL,
    record_times=(),
    rho0: np.ndarray | None = None,
    readout: np.ndarray | None = None,
) -> PropagationResult:
    """Reduced single-mode backend: primary cavity with transformed channels.

    The collective drive concentrates on the primary mode as sqrt(N) x
    delta_alpha; the DM-induced downward transitions are inherent in the
    displacement steps.  Valid for any N; cross-validated against the full
    backend at N = 2.  A supplied rho0 replaces |m><m| and a supplied
    readout observable the |m+1> projector, as in propagate_cycle.
    """
    space = HilbertSpace(1, cutoff if cutoff is not None else m + 4)
    psi0, target = _primary_states(space, m)
    return _run_cycle(
        space, effective_noise_model(rates), math.sqrt(n_cavities),
        np.outer(psi0, psi0.conj()) if rho0 is None else rho0,
        target if readout is None else readout, g, tau_dm, tau_int, populate, dt,
        leak_tol, record_times,
    )


# ---------------------------------------------------------------------------
# Beamsplitter-infidelity model
# ---------------------------------------------------------------------------

def _run_windows(
    rho: np.ndarray,
    space: HilbertSpace,
    windows,
    inverse: bool = False,
    adjoint: bool = False,
) -> np.ndarray:
    """Run a lossy gate given as (noise, splitter or None, duration) windows in gate order.

    Each cavity outside a window's splitter pair takes its exact factor
    E(duration) once; the pair takes n_sub symmetric Strang steps
    E(h/2) Ad(U_sub) E(h/2), adjacent half steps merged (see the module
    docstring).  inverse runs the inverse gate: the windows in reverse
    order, each splitter backwards.  With adjoint, rho holds a Hermitian
    observable O and the result is the Heisenberg-picture image G^dag(O) of
    the same gate G (the order reversed once more, each factor replaced by
    its adjoint), so that Re Tr(G^dag(O) r) = Re Tr(O G(r)) for every state r.
    """
    c = space.cutoff
    herm = _hermitian_basis(c)
    complex_channels = {}  # T E(t) T^H, or its adjoint, on rho.ravel(), per (rates, t)

    def channels(rates, modes, t):
        """(mode, channel) for each listed mode over time t."""
        out = []
        for mode in modes:
            if (rates[mode], t) not in complex_channels:
                factor = _factor(c, rates[mode], t)
                complex_channels[rates[mode], t] = (
                    herm @ (factor.T if adjoint else factor) @ herm.conj().T)
            out.append((mode, complex_channels[rates[mode], t]))
        return out

    def dissipate(rho, mode_channels):
        for mode, phi in mode_channels:
            rho = apply_channel(phi, rho, mode, space)
        return rho

    for noise, spec, duration in (windows[::-1] if inverse != adjoint else windows):
        rates = _mode_rates(noise, space)
        pair = (spec.mode_a, spec.mode_b) if spec is not None else ()
        rest = [mode for mode in range(space.n_modes) if mode not in pair]
        rho = dissipate(rho, channels(rates, rest, duration))
        if spec is None:
            continue
        n_sub = 1
        if duration > 0:
            n_sub = max(64, int(math.ceil(duration * _total_rate(noise, c) / 2e-3)))
        h = duration / n_sub
        sub = pair_unitary(replace(spec, theta=spec.theta / n_sub), c)
        if inverse != adjoint:
            sub = sub.conj().T
        step, half = channels(rates, pair, h), channels(rates, pair, 0.5 * h)
        for k in range(n_sub):
            rho = dissipate(rho, step if k else half)
            rho = apply_right_dag(sub, apply_left(sub, rho, pair, space), pair, space)
        rho = dissipate(rho, half)
    return rho


def swap_fidelity(
    multiplier: float,
    g_bs: float,
    gamma_up: float,
    gamma_down: float,
    gamma_phi: float,
) -> float:
    """P(single photon entering mode a exits mode b) after a theta = pi/2 swap, at cutoff 3."""
    space = HilbertSpace(2, 3)
    noise = NoiseModel.uniform(2, gamma_up, gamma_down, gamma_phi).elevated(multiplier, (0, 1))
    spec = BeamsplitterSpec(0, 1, math.pi / 2, math.pi / 2)
    psi = number_state(space, [1, 0])
    rho = _run_windows(np.outer(psi, psi.conj()), space, [(noise, spec, spec.theta / g_bs)])
    idx = space.index_of([0, 1])
    return float(rho[idx, idx].real)


@lru_cache(maxsize=32)
def calibrate_bs_multiplier(
    f_bs: float,
    g_bs: float,
    gamma_up: float,
    gamma_down: float,
    gamma_phi: float,
) -> float:
    """Common decay and dephasing multiplier whose pi/2 single-photon swap fidelity equals f_bs.

    Heating stays at gamma_up in the window (see NoiseModel.elevated).  The
    result is that of a plain search: double the bracket [1, 2] until
    fid(hi) <= f_bs (FidelityUnreachable past 1e9), then bisect to a
    relative width of CALIBRATION_REL_TOL, testing fid(x) > f_bs, with fid
    the swap_fidelity of multiplier x.  The search assumes that fid
    falls as x grows, and answers each test from the evaluations made so
    far where they decide it: True at or below the largest x seen above
    f_bs, False at or above the smallest x seen at or below it.  Before
    the loops, up to SECANT_STEPS secant steps on fid - f_bs from x = 1
    and 2 (an iterate outside the bracket so far or above 1e9 ends them)
    and two evaluations at 1e-9 relative on either side of the last
    iterate settle almost every test: 7, 6 and 6 evaluations at f_bs 0.9,
    0.99 and 0.999 and the reference rates, where the plain search makes 28
    at 0.99.

    The search is a pure function of its float arguments, so the result
    is cached per exact argument tuple (a raised FidelityUnreachable is
    not cached).  Callers pass the mean pair rates from _mean_pair_rates,
    whose fsum means are bit-identical for uniform rates at any cavity
    count, so every N of a uniform array shares one calibration.
    """
    if not 0 < f_bs <= 1:
        raise InvalidArgument("f_bs must lie in (0, 1]")
    if g_bs <= 0:
        raise InvalidArgument("g_bs must be positive")

    above, below = -math.inf, math.inf  # largest x seen above f_bs, smallest at or below

    def fid(mult):
        nonlocal above, below
        out = swap_fidelity(mult, g_bs, gamma_up, gamma_down, gamma_phi)
        if out > f_bs:
            above = max(above, mult)
        else:
            below = min(below, mult)
        return out

    def exceeds(mult):
        if mult <= above:
            return True
        if mult >= below:
            return False
        return fid(mult) > f_bs

    base = fid(1.0)
    if f_bs >= base:
        if f_bs - base < 1e-9:
            return 1.0
        raise FidelityUnreachable(
            f"requested fidelity {f_bs} exceeds the base-rate limit {base:.9f}"
        )
    # secant steps, then a 1e-9 bracket around the last iterate, so that the
    # loops below find nearly every answer in what is already evaluated
    x0, r0, x1 = 1.0, base - f_bs, 2.0
    r1 = fid(x1) - f_bs
    for _ in range(SECANT_STEPS):
        if r1 == r0:
            break
        x = x1 - r1 * (x1 - x0) / (r1 - r0)
        if not above < x < below or x > 1e9:
            break
        x0, r0, x1, r1 = x1, r1, x, fid(x) - f_bs
        if abs(x1 - x0) <= 1e-9 * x1:
            break
    for x in (x1 * (1 - 1e-9), x1 * (1 + 1e-9)):
        if above < x < below and x <= 1e9:
            fid(x)
    lo, hi = 1.0, 2.0
    while exceeds(hi):
        lo, hi = hi, hi * 2.0
        if hi > 1e9:
            raise FidelityUnreachable("could not bracket the requested fidelity")
    while (hi - lo) / hi > CALIBRATION_REL_TOL:
        mid = 0.5 * (lo + hi)
        if exceeds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lossy_ed_apply(
    rho: np.ndarray,
    space: HilbertSpace,
    plan: EDPlan,
    f_bs: float,
    g_bs: float,
    base_noise: NoiseModel,
    inverse: bool = False,
    multiplier: float | None = None,
    adjoint: bool = False,
) -> np.ndarray:
    """Apply the distribution gate as a lossy channel to a density matrix on space.

    Each splitter runs for theta/g_bs under its Hamiltonian while the two
    coupled cavities carry decay and dephasing elevated by the multiplier
    and their base heating; the other cavities keep their base rates.  The
    multiplier defaults to the one calibrate_bs_multiplier finds for the
    mean rates of base_noise.  f_bs = 1 reduces to the ideal unitary
    conjugation.

    With adjoint, rho holds a Hermitian observable O and the result is the
    Heisenberg-picture image G^dag(O) of the same gate G (see _run_windows).
    """
    if plan.n_cavities != space.n_modes:
        raise InvalidArgument("plan and space disagree on the cavity count")
    if f_bs >= 1.0:
        return apply_plan_rho(rho, plan, space, inverse != adjoint)
    if multiplier is None:
        multiplier = calibrate_bs_multiplier(f_bs, g_bs, *_mean_pair_rates(base_noise))
    windows = [
        (base_noise.elevated(multiplier, (spec.mode_a, spec.mode_b)), spec, spec.theta / g_bs)
        for spec in plan.sequence
    ]
    return _run_windows(rho, space, windows, inverse, adjoint)


def _mean_pair_rates(noise: NoiseModel) -> tuple[float, float, float]:
    """Mean (up, down, phi) rates over the cavities, summed exactly with fsum."""
    n = noise.n_cavities
    return (
        math.fsum(noise.gamma_up) / n,
        math.fsum(noise.gamma_down) / n,
        math.fsum(noise.gamma_phi) / n,
    )


def effective_lossy_window(
    rho: np.ndarray,
    rates: TransformedRates,
    multiplier: float,
    duration: float,
    heating_on: bool,
    adjoint: bool = False,
) -> np.ndarray:
    """Reduced-model beamsplitter window: elevated transformed rates, no drive.

    One layer of the binary tree on the effective mode (see the module
    docstring); heating is the averaged rate, or off.  With adjoint, rho is
    an observable and the window's adjoint map is applied.
    """
    noise = effective_noise_model(rates).elevated(multiplier, (0,))
    window = (noise if heating_on else noise.heating_off(), None, duration)
    return _run_windows(rho, HilbertSpace(1, rho.shape[0]), [window], adjoint=adjoint)
