"""Beamsplitter pair unitaries and the entanglement-distribution (ED) gate.

A beamsplitter between modes a and b implements, under Heisenberg
conjugation U^dag (.) U,

    a -> cos(theta) a + i e^{i phi}  sin(theta) b
    b -> i e^{-i phi} sin(theta) a + cos(theta) b.

The ED gate distributes a primary-cavity excitation over the equal-weight
symmetric mode of all N cavities:

    U_ED a_0^dag U_ED^dag = (1/sqrt(N)) sum_n a_n^dag,

with every superposition coefficient fixed real positive 1/sqrt(N) by the
phase choice phi = pi/2 on each splitter (the chain construction is not
unique; this convention makes golden tests deterministic).  Sandwiching the
collective per-mode displacement between the gate and its inverse then
concentrates it on the primary cavity:

    U_ED^dag [ D_0(alpha) x ... x D_{N-1}(alpha) ] U_ED = D_0(sqrt(N) alpha).

The gate exists only as an EDPlan, a time-ordered splitter sequence.
apply_plan and apply_plan_rho apply it one cutoff^2 x cutoff^2 pair
unitary at a time by tensor contraction; no full-space matrix is built.
verify_ed measures all of these relations on a plan instead of trusting the
construction.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument, UnsupportedCavityCount
from .fock import HilbertSpace, number_state, occupations, single_mode_ladder
from .linalg import expm, max_abs, unitarity_defect
from .tensorops import apply_left, apply_right_dag, apply_to_vector


@dataclass(frozen=True)
class BeamsplitterSpec:
    """One two-mode mixer: rotation angle theta, phase angle phi."""

    mode_a: int
    mode_b: int
    theta: float
    phi: float

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise InvalidArgument("beamsplitter needs two distinct modes")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise InvalidArgument("theta and phi must be finite")


@dataclass(frozen=True)
class EDPlan:
    """Ordered beamsplitter sequence realising the ED gate.

    ``sequence`` is in time order: the first splitter acts first on the
    state.  ``layers`` groups splitters that act on disjoint mode pairs and
    can run simultaneously; its length is the circuit depth (N-1 for the
    linear chain, log2 N for the binary tree).
    """

    scheme: str
    n_cavities: int
    sequence: tuple[BeamsplitterSpec, ...]
    layers: tuple[tuple[BeamsplitterSpec, ...], ...] = field(default=())

    def __post_init__(self):
        if self.scheme not in ("linear", "binary"):
            raise InvalidArgument(f"unknown ED scheme {self.scheme!r}")
        if len(self.sequence) != self.n_cavities - 1:
            raise InvalidArgument("an ED plan uses exactly N-1 beamsplitters")

    @property
    def depth(self) -> int:
        return len(self.layers)

    def duration(self, g_bs: float) -> float:
        """Wall-clock gate time: depth x theta_max / g_bs."""
        if not self.sequence:
            return 0.0
        theta_max = max(spec.theta for spec in self.sequence)
        return self.depth * theta_max / g_bs


def beamsplitter_generator(cutoff: int, theta: float, phi: float) -> np.ndarray:
    """Pair-level generator i*theta*(e^{i phi} a^dag b + e^{-i phi} a b^dag)."""
    a = single_mode_ladder(cutoff)
    eye = np.eye(cutoff, dtype=complex)
    a_full = np.kron(a, eye)
    b_full = np.kron(eye, a)
    return 1j * theta * (
        np.exp(1j * phi) * (a_full.conj().T @ b_full)
        + np.exp(-1j * phi) * (a_full @ b_full.conj().T)
    )


@lru_cache(maxsize=256)
def _pair_unitary_cached(theta: float, phi: float, cutoff: int) -> np.ndarray:
    u = expm(beamsplitter_generator(cutoff, theta, phi))
    u.setflags(write=False)
    return u


def pair_unitary(spec: BeamsplitterSpec, cutoff: int) -> np.ndarray:
    """cutoff^2 x cutoff^2 unitary acting on the (mode_a, mode_b) pair."""
    return _pair_unitary_cached(spec.theta, spec.phi, cutoff)


def linear_plan(n_cavities: int) -> EDPlan:
    """Chain of adjacent splitters distributing amplitude uniformly.

    The k-th splitter (0-based, connecting cavities k and k+1) keeps
    amplitude fraction 1/(N-k) in cavity k, i.e. theta_k =
    arccos(1/sqrt(N-k)); phi = pi/2 cancels the i factors so all final
    coefficients are real positive.
    """
    seq = tuple(
        BeamsplitterSpec(k, k + 1, math.acos(1.0 / math.sqrt(n_cavities - k)), math.pi / 2)
        for k in range(n_cavities - 1)
    )
    layers = tuple((spec,) for spec in seq)
    return EDPlan("linear", n_cavities, seq, layers)


def binary_plan(n_cavities: int) -> EDPlan:
    """Binary tree of 50:50 splitters; requires a power-of-two cavity count."""
    if n_cavities < 1 or (n_cavities & (n_cavities - 1)) != 0:
        raise UnsupportedCavityCount(
            f"binary scheme needs a power-of-two cavity count, got {n_cavities}"
        )
    seq: list[BeamsplitterSpec] = []
    layers: list[tuple[BeamsplitterSpec, ...]] = []
    offset = 1
    while offset < n_cavities:
        layer = tuple(
            BeamsplitterSpec(j, j + offset, math.pi / 4, math.pi / 2) for j in range(offset)
        )
        layers.append(layer)
        seq.extend(layer)
        offset *= 2
    return EDPlan("binary", n_cavities, tuple(seq), tuple(layers))


@lru_cache(maxsize=64, typed=True)
def make_plan(scheme: str, n_cavities: int) -> EDPlan:
    """The ED plan of a scheme and cavity count, built once: an EDPlan is frozen and holds tuples."""
    if scheme == "linear":
        return linear_plan(n_cavities)
    if scheme == "binary":
        return binary_plan(n_cavities)
    raise InvalidArgument(f"unknown ED scheme {scheme!r}")


def _plan_steps(plan: EDPlan, space: HilbertSpace, inverse: bool) -> list:
    """(pair unitary, modes) per splitter in application order; inverse reverses and conjugates."""
    if plan.n_cavities != space.n_modes:
        raise InvalidArgument("plan and space disagree on the cavity count")
    steps = []
    for spec in (plan.sequence[::-1] if inverse else plan.sequence):
        u = pair_unitary(spec, space.cutoff)
        steps.append((u.conj().T if inverse else u, (spec.mode_a, spec.mode_b)))
    return steps


def apply_plan(psi: np.ndarray, plan: EDPlan, space: HilbertSpace, inverse: bool = False) -> np.ndarray:
    """Apply the ED gate (or its inverse) to a state vector via pair contractions."""
    for u, modes in _plan_steps(plan, space, inverse):
        psi = apply_to_vector(u, psi, modes, space)
    return psi


def apply_plan_rho(rho: np.ndarray, plan: EDPlan, space: HilbertSpace, inverse: bool = False) -> np.ndarray:
    """Conjugate a density matrix by the ED gate (or its inverse)."""
    for u, modes in _plan_steps(plan, space, inverse):
        rho = apply_right_dag(u, apply_left(u, rho, modes, space), modes, space)
    return rho


def single_photon_matrix(plan: EDPlan, space: HilbertSpace) -> np.ndarray:
    """M[j, i] = <1_j| U_ED |1_i>; equals the ladder-conjugation transfer matrix.

    The ED defining relations in coefficient form read M[n, 0] = 1/sqrt(N)
    for every n, with c_{n n'} = M[n, n'] for n' >= 1 obeying the sum rule
    sum |c|^2 = 1 - 1/N row by row.
    """
    n = plan.n_cavities
    singles = [[int(k == i) for k in range(n)] for i in range(n)]
    ones = [space.index_of(occ) for occ in singles]
    return np.stack([apply_plan(number_state(space, occ), plan, space)[ones] for occ in singles],
                    axis=1)


@dataclass(frozen=True)
class EDVerification:
    """Residuals of the ED defining relations; serialises for the CLI."""

    n_cavities: int
    cutoff: int
    conjugation_residual: float
    dual_residual: float
    displacement_residual: float
    coefficient_column_residual: float
    sum_rule_residual: float
    unitarity_residual: float
    alpha: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.conjugation_residual <= self.tolerance
            and self.dual_residual <= self.tolerance
            and self.displacement_residual <= self.tolerance
            and self.coefficient_column_residual <= self.tolerance
            and self.sum_rule_residual <= self.tolerance
            and self.unitarity_residual <= max(self.tolerance, 1e-10)
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify_ed(
    plan: EDPlan,
    space: HilbertSpace,
    alpha: complex = 0.05,
    max_fock: int = 3,
    tolerance: float = 1e-9,
) -> EDVerification:
    """Measure the ED defining relations of a plan on a space with N = plan.n_cavities modes.

    Checks, in order: (iii) the coefficient matrix extracted from the
    single-photon sector against the uniform first column and the sum rule;
    (i) the conjugation U a_0^dag U^dag = (1/sqrt N) sum a_n^dag and its dual
    U^dag (sum a_n) U = sqrt(N) a_0, applied through the plan to every basis
    state of total occupation <= min(2, cutoff-2), where both are exact; and
    (ii) the displacement-enhancement identity applied to Fock states
    |m,0,...,0> for m <= max_fock.
    """
    n_cavities = plan.n_cavities
    if space.n_modes != n_cavities:
        raise InvalidArgument("space mode count must equal the plan's cavity count")
    c = space.cutoff
    if max_fock > c - 2:
        raise InvalidArgument("max_fock must leave at least one level of headroom")

    # (iii) coefficient extraction from the single-photon sector
    m_mat = single_photon_matrix(plan, space)
    column_residual = max_abs(m_mat[:, 0] - 1.0 / math.sqrt(n_cavities))
    row_sums = np.sum(np.abs(m_mat[:, 1:]) ** 2, axis=1)
    sum_rule_residual = max_abs(row_sums - (1.0 - 1.0 / n_cavities))

    # (i) conjugation relation and its dual on the safe low-occupation states
    unit_res = max((unitarity_defect(pair_unitary(s, c)) for s in plan.sequence), default=0.0)
    conj_res = 0.0
    dual_res = 0.0
    totals = occupations(space).sum(axis=1)
    probe = np.flatnonzero(totals <= min(2, c - 2))
    sqrt_n = math.sqrt(n_cavities)
    a_low = single_mode_ladder(c)
    for idx in probe:
        base = np.zeros(space.dim, dtype=complex)
        base[idx] = 1.0
        lhs = apply_plan(_raise_mode(apply_plan(base, plan, space, inverse=True), 0, space),
                         plan, space)
        rhs = sum(_raise_mode(base, k, space) for k in range(n_cavities)) / sqrt_n
        conj_res = max(conj_res, float(np.linalg.norm(lhs - rhs)))
        mid = apply_plan(base, plan, space)
        mid = sum(apply_to_vector(a_low, mid, (k,), space) for k in range(n_cavities))
        lhs2 = apply_plan(mid, plan, space, inverse=True)
        rhs2 = sqrt_n * apply_to_vector(a_low, base, (0,), space)
        dual_res = max(dual_res, float(np.linalg.norm(lhs2 - rhs2)))

    # (ii) displacement enhancement on Fock test states
    disp_res = 0.0
    d_single = _displacement_single(c, alpha)
    d_primary = _displacement_single(c, math.sqrt(n_cavities) * alpha)
    for m in range(0, max_fock + 1):
        psi = number_state(space, [m] + [0] * (n_cavities - 1))
        inside = apply_plan(psi, plan, space)
        for mode in range(n_cavities):
            inside = apply_to_vector(d_single, inside, (mode,), space)
        lhs = apply_plan(inside, plan, space, inverse=True)
        rhs = apply_to_vector(d_primary, psi, (0,), space)
        disp_res = max(disp_res, float(np.linalg.norm(lhs - rhs)))

    return EDVerification(
        n_cavities=n_cavities,
        cutoff=c,
        conjugation_residual=float(conj_res),
        dual_residual=float(dual_res),
        displacement_residual=float(disp_res),
        coefficient_column_residual=float(column_residual),
        sum_rule_residual=float(sum_rule_residual),
        unitarity_residual=float(unit_res),
        alpha=float(abs(alpha)),
        tolerance=tolerance,
    )


def _raise_mode(psi: np.ndarray, mode: int, space: HilbertSpace) -> np.ndarray:
    a_dag = single_mode_ladder(space.cutoff).conj().T
    return apply_to_vector(a_dag, psi, (mode,), space)


def _displacement_single(cutoff: int, alpha: complex) -> np.ndarray:
    # Deliberately expm, not the propagator's cached eigensystem of
    # i(a^dag - a) (lindblad._displacement_eigensystem): verify_ed then checks
    # the gate relations with a displacement computed independently of the
    # one the propagation uses.
    a = single_mode_ladder(cutoff)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)
