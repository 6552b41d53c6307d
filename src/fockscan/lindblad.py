"""Discretised Lindblad propagation of the detection cycle.

Each step applies the collective incremental displacement exactly (the
generator is exponentiated, not Euler-stepped) and then one first-order
dissipator update

    rho <- U rho U^dag + dt * sum_k (A_k rho A_k^dag - {A_k^dag A_k, rho}/2),

with collapse channels sqrt(gamma_up) a^dag, sqrt(gamma_down) a and
sqrt(gamma_phi) a^dag a per cavity.  Signal runs switch heating off;
background runs switch the drive off; total counts are assembled downstream.

The ladder channels have one nonzero entry per row, so each A rho A^dag is
an index gather of rho scaled by the jump's row weights: O(dim^2) flops and
O(dim) stored data per jump (see _ChannelSet), with no dense jump matrix.
The terms are accumulated in the order the dense contractions used, which
keeps every update bit-identical to them.  Dephasing and the anticommutator
are diagonal in the Fock basis and act as elementwise weights.

A run with no channel at all (the signal run of a lossless reference) only
composes displacements along the one real generator i(a - a^dag), so its
steps compose exactly: at record step k the state is D(alpha_k)^{(x)N} rho_0
D(alpha_k)^{dag (x)N} with alpha_k = drive_amp <|alpha|>(t_k), since every run
starts at t = 0, where <|alpha|> = 0.
_propagate evaluates that closed form at the record steps only and reports
the nominal step count; the stepping loop is not entered.

A drive-free run with channels (every background run) steps only the
total-photon-number sectors.  Each jump moves the row and the column index
of rho by the same photon, and the anticommutator and dephasing weights are
diagonal, so the dissipator commutes with exp(i phi N_tot): a state with no
coherence between different N_tot never gains any.  Background runs start
from U_ED |m,0,...,0>, which has N_tot = m because the splitters conserve
photon number, so only the N_tot-diagonal blocks are nonzero (489 of 6561
entries at N = 2, cutoff 9).  _propagate packs those entries into one
vector (see _Sectors), steps it, and scatters it back into a dense matrix
at each record and at the end, so recording, readout and final state are
unchanged.  The packed update is bit-identical to the dense one: each
packed entry goes through the same float operations in the same order
(-anticomm x rho, each jump's (amp_i x gathered) x conj(amp_j) in build
order, dephasing, rho + dt x acc, then (rho + rho^dag)/2 with the dagger
read through the transpose permutation), and elementwise arithmetic does
not depend on which entries sit beside it.  The entries outside the
sectors are exact zeros in the dense loop and stay so.  A driven run, or
an initial state with any nonzero entry outside the sectors, keeps the
dense layout.

Readouts are taken in the Heisenberg picture.  A lossy inverse gate is a
fixed, drive-free linear map G, so instead of pushing every recorded state
through it, the readout projector O is pulled back once through its adjoint
G^dag and each record reads Re Tr(G^dag(O) rho).  The adjoint of a ladder
jump, A^dag O A, is again a one-nonzero-per-row gather (that of A^dag); the
anticommutator and dephasing weights are symmetric and serve both
directions.  A window's adjoint substep is the adjoint dissipator update
followed by O -> U_sub^dag O U_sub.  Symmetrisation is transparent for a
Hermitian O, since Tr(O (X + X^dag)/2) = Re Tr(O X).

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
noise model, drive scale and |m>, |m+1> states; _run_cycle does the rest.

Beamsplitter infidelity is modelled by lossy windows: each window evolves
under elevated noise, with its splitter Hamiltonian or none, for a given
duration.  The full model has one window per splitter, in which the two
coupled cavities carry rates raised by a common multiplier, calibrated so
a single photon survives a full swap with the requested probability.  The
effective model has one window per layer of the binary tree on its one
mode: every occupied cavity sits inside an elevated pair during each
layer, so the averaged rates are the base rates times the multiplier.
_run_windows runs a window list forward or adjoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FidelityUnreachable, InvalidArgument, StabilityGuard, TruncationLeak
from .fock import HilbertSpace, number_state, occupations, single_mode_ladder
from .gates import BeamsplitterSpec, EDPlan, apply_plan, apply_plan_rho, pair_unitary
from .tensorops import apply_left, apply_right_dag

DEFAULT_LEAK_TOL = 1e-6
STABILITY_LIMIT = 0.05
CALIBRATION_REL_TOL = 1e-6


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

    def elevated(self, multiplier: float, modes, elevate_heating: bool = True) -> "NoiseModel":
        """Scale the rates of the listed cavities by a common multiplier."""
        modes = set(modes)
        up = tuple(
            g * multiplier if (i in modes and elevate_heating) else g
            for i, g in enumerate(self.gamma_up)
        )
        down = tuple(g * multiplier if i in modes else g for i, g in enumerate(self.gamma_down))
        phi = tuple(g * multiplier if i in modes else g for i, g in enumerate(self.gamma_phi))
        return NoiseModel(up, down, phi)


@dataclass(frozen=True)
class TransformedRates:
    """Effective primary-cavity rates after conjugation by the ED gate."""

    n_cavities: int
    fock_m: int
    bar_gamma_up_1: float
    bar_gamma_down: float
    bar_gamma_phi: float

    @property
    def gamma_m_plus_1(self) -> float:
        """Thermal deposition rate into |m+1>: (m+1) x averaged heating."""
        return (self.fock_m + 1) * self.bar_gamma_up_1

    @property
    def gamma_m(self) -> float:
        """Decay-driven depletion of |m>: m x averaged decay."""
        return self.fock_m * self.bar_gamma_down

    @property
    def gamma_m_phi(self) -> float:
        """Dephasing-driven photon swap out of |m>: m (1 - 1/N) x averaged dephasing."""
        return self.fock_m * (1.0 - 1.0 / self.n_cavities) * self.bar_gamma_phi

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
    """min(tau_dm/200, 0.02/total_rate): keeps drive and dissipator errors below the 0.5% gate."""
    dt = tau_dm / 200.0
    if total_rate > 0:
        dt = min(dt, 0.02 / total_rate)
    return dt


class _ChannelSet:
    """Precomputed collapse-channel data for one space + noise model.

    A ladder jump A = sqrt(gamma) a or sqrt(gamma) a^dag on one mode has at
    most one nonzero entry per row of its full-space matrix, so it is stored
    as a gather: row i of A reads column src[i] with weight amp[i], and

        (A rho A^dag)[i, j] = (amp[i] * rho[src[i], src[j]]) * conj(amp[j]).

    That costs O(dim^2) flops and O(dim) memory per jump instead of two
    tensor contractions.  The contraction summed exact zeros around the same
    single product, and dissipator() adds the terms in the same order
    (anticommutator, jumps in build order, dephasing), so the update is
    bit-identical to the contraction form.

    The adjoint term A^dag O A is the gather of A^dag, built beside each
    forward jump; dissipator(O, adjoint=True) applies the adjoint
    dissipator with the same (symmetric) anticommutator and dephasing
    weights.
    """

    def __init__(self, space: HilbertSpace, noise: NoiseModel):
        if noise.n_cavities != space.n_modes:
            raise InvalidArgument("noise model length must equal the space's mode count")
        self.space = space
        c = space.cutoff
        occ_idx = occupations(space)
        occ = occ_idx.astype(float)
        a = single_mode_ladder(c)
        # per jump: src, amp[:, None] and conj(amp)[None, :]
        self.ladder_jumps: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.adjoint_jumps: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        decay_diag = np.zeros(space.dim)
        deph_amp = []  # per-mode sqrt(gamma_phi) * occupation vectors
        for mode in range(space.n_modes):
            g_up = noise.gamma_up[mode]
            g_down = noise.gamma_down[mode]
            g_phi = noise.gamma_phi[mode]
            stride = c ** (space.n_modes - 1 - mode)
            if g_up > 0:
                self._add_jump(math.sqrt(g_up) * a.conj().T, occ_idx[:, mode], stride)
                # truncated a a^dag has diagonal k+1 below the boundary, 0 at the top
                diag = np.where(occ[:, mode] < c - 1, g_up * (occ[:, mode] + 1.0), 0.0)
                decay_diag += diag
            if g_down > 0:
                self._add_jump(math.sqrt(g_down) * a, occ_idx[:, mode], stride)
                decay_diag += g_down * occ[:, mode]
            if g_phi > 0:
                deph_amp.append(math.sqrt(g_phi) * occ[:, mode])
                decay_diag += g_phi * occ[:, mode] ** 2
        self.anticomm = 0.5 * (decay_diag[:, None] + decay_diag[None, :])
        if deph_amp:
            self.deph_outer = sum(np.outer(v, v) for v in deph_amp)
        else:
            self.deph_outer = None
        self.total_rate = float(decay_diag.max()) if space.dim else 0.0

    def _add_jump(self, op: np.ndarray, occ: np.ndarray, stride: int) -> None:
        self.ladder_jumps.append(_gather_jump(op, occ, stride))
        self.adjoint_jumps.append(_gather_jump(op.conj().T, occ, stride))

    @property
    def has_channels(self) -> bool:
        """False when every rate is zero: no jump, no dephasing, a zero anticommutator."""
        return bool(self.ladder_jumps) or self.deph_outer is not None

    def dissipator(self, rho: np.ndarray, adjoint: bool = False) -> np.ndarray:
        acc = -self.anticomm * rho
        for src, amp_col, amp_row_conj in (self.adjoint_jumps if adjoint else self.ladder_jumps):
            acc += (amp_col * rho.take(src, 0).take(src, 1)) * amp_row_conj
        if self.deph_outer is not None:
            acc += self.deph_outer * rho
        return acc


class _Sectors:
    """The total-photon-number sectors of a space: rho's block-diagonal entries, packed.

    Entry p of the packed vector is rho[I[p], J[p]], with N_tot(I[p]) =
    N_tot(J[p]); the entries are grouped block by block (sectors in
    ascending N_tot, basis indices ascending within each).  T[p] is the
    position of the transposed entry (J[p], I[p]).  For ladder jump k of
    the channel set (in build order), sources[k * len(I) + p] is the
    position of (src[I[p]], src[J[p]]), and amp_rows[k], amp_cols[k] are
    the jump's weights amp[I], conj(amp)[J], so one take gathers every
    jump.  A jump moves both indices by the same photon, so a source pair
    leaves the sectors only where a zero row of the jump gives it weight 0;
    such a source points at entry 0, and its term is 0 as the dense one is.
    This data is built per run and only for drive-free runs; driven runs
    keep the O(dim) per-jump data of _ChannelSet alone.
    """

    def __init__(self, chans: _ChannelSet):
        space = chans.space
        ntot = occupations(space).sum(axis=1)
        sizes = np.bincount(ntot)
        order = np.argsort(ntot, kind="stable")
        starts = np.cumsum(sizes) - sizes
        rank = np.empty(space.dim, dtype=np.intp)
        rank[order] = np.arange(space.dim) - starts[ntot[order]]
        offsets = np.cumsum(sizes ** 2) - sizes ** 2

        def position(i, j):
            return offsets[ntot[i]] + rank[i] * sizes[ntot[i]] + rank[j]

        blocks = [order[s:s + n] for s, n in zip(starts, sizes)]
        self.dim = space.dim
        self.I = np.concatenate([np.repeat(b, b.size) for b in blocks])
        self.J = np.concatenate([np.tile(b, b.size) for b in blocks])
        self.T = position(self.J, self.I)
        self.neg_anti = -chans.anticomm[self.I, self.J]
        self.deph = None if chans.deph_outer is None else chans.deph_outer[self.I, self.J]
        sources, rows, cols = [], [], []
        for src, amp_col, amp_row_conj in chans.ladder_jumps:
            si, sj = src[self.I], src[self.J]
            inside = ntot[si] == ntot[sj]
            sources.append(np.where(inside, position(si, sj), 0))
            rows.append(amp_col[self.I, 0])
            cols.append(amp_row_conj[0, self.J])
        self.sources = np.concatenate(sources) if sources else None
        self.amp_rows = np.array(rows)
        self.amp_cols = np.array(cols)

    def pack(self, rho: np.ndarray) -> np.ndarray | None:
        """rho's in-sector entries, or None if rho has a nonzero entry outside the sectors."""
        v = rho[self.I, self.J]
        return v if np.count_nonzero(v) == np.count_nonzero(rho) else None

    def unpack(self, v: np.ndarray) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=v.dtype)
        rho[self.I, self.J] = v
        return rho

    def dagger(self, v: np.ndarray) -> np.ndarray:
        return v.take(self.T).conj()

    def dissipator(self, v: np.ndarray) -> np.ndarray:
        """_ChannelSet.dissipator on the packed entries, term for term in the same order."""
        acc = self.neg_anti * v
        if self.sources is not None:
            gathered = v.take(self.sources).reshape(self.amp_rows.shape)
            for term in (self.amp_rows * gathered) * self.amp_cols:
                acc += term
        if self.deph is not None:
            acc += self.deph * v
        return acc


def _gather_jump(op: np.ndarray, occ: np.ndarray, stride: int):
    """Gather form (src, amp[:, None], conj(amp)[None, :]) of a one-mode jump.

    op is the cutoff x cutoff jump with at most one nonzero per row, occ the
    mode's column of the occupation table and stride the mode's step in the
    flat index.  A zero row of op gets column 0 and weight 0, so its src
    stays a valid index.
    """
    cols = np.argmax(op != 0, axis=1)
    amp = op[occ, cols[occ]]
    src = np.arange(occ.size) + (cols[occ] - occ) * stride
    return src, amp[:, None], amp.conj()[None, :]


@lru_cache(maxsize=32)
def _displacement_eigensystem(cutoff: int):
    """Eigendecomposition of i(a - a^dag); exp(alpha(a^dag - a)) = Q e^{-i L alpha} Q^dag."""
    a = single_mode_ladder(cutoff)
    herm = 1j * (a.conj().T - a)
    vals, vecs = np.linalg.eigh(herm)
    return vals, vecs


def _single_displacement(cutoff: int, alpha: float) -> np.ndarray:
    """D(alpha) on one mode for real alpha, from the cached eigensystem."""
    vals, vecs = _displacement_eigensystem(cutoff)
    return (vecs * np.exp(-1j * vals * alpha)) @ vecs.conj().T


def _check_stability(dt: float, chans: _ChannelSet) -> None:
    if dt * chans.total_rate >= STABILITY_LIMIT:
        raise StabilityGuard(
            f"dt*max_rate = {dt * chans.total_rate:.3g} exceeds {STABILITY_LIMIT}"
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


def _leakage_probs(diag: np.ndarray, space: HilbertSpace) -> float:
    """Population at the top Fock level of each mode, summed: the truncation's validity monitor."""
    occ = occupations(space)
    top = occ == (space.cutoff - 1)
    return float(sum(diag[top[:, m]].sum() for m in range(space.n_modes)))


def _displace_all(rho: np.ndarray, alpha: float, space: HilbertSpace) -> np.ndarray:
    """D(alpha)^{(x)N} rho D(alpha)^{dag (x)N}, one mode at a time."""
    d1 = _single_displacement(space.cutoff, alpha)
    for mode in range(space.n_modes):
        rho = apply_left(d1, rho, (mode,), space)
        rho = apply_right_dag(d1, rho, (mode,), space)
    return rho


def _propagate(
    space: HilbertSpace,
    rho: np.ndarray,
    chans: _ChannelSet,
    drive_amp: float,
    g: float,
    tau_dm: float,
    tau_int: float,
    dt: float,
    readout: np.ndarray | None,
    record_every: int,
    leak_tol: float,
    record_steps: set[int] | None = None,
):
    """Shared stepping loop; drive_amp scales the per-step displacement.

    readout is read at every record: a state vector t as <t|rho|t>, or a
    Hermitian observable O (a matrix) as Re Tr(O rho).  A run without any
    channel is evaluated in closed form at the record steps (see the module
    docstring); n_steps is the nominal step count either way.
    """
    _check_stability(dt, chans)
    n_steps = max(1, int(round(tau_int / dt))) if tau_int > 0 else 0
    times, pops, traces, leaks = [], [], [], []

    def is_record(step):
        if step == n_steps:
            return True
        if record_steps is not None:
            return step in record_steps
        return step % record_every == 0

    def record(step):
        t = step * dt
        times.append(t)
        if readout is not None:
            if readout.ndim == 1:
                pops.append(float(np.real(np.vdot(readout, rho @ readout))))
            else:
                pops.append(float(np.real(np.vdot(readout, rho))))
        diag = np.diag(rho).real
        traces.append(abs(diag.sum() - 1.0))
        leak = _leakage_probs(diag, space)
        leaks.append(leak)
        if leak > leak_tol:
            raise TruncationLeak(
                f"leakage {leak:.3g} exceeded budget {leak_tol:g} at t = {t:.3g} s"
            )

    from .drive import mean_displacement

    record(0)
    if not chans.has_channels:
        rho0 = rho
        for step in filter(is_record, range(1, n_steps + 1)):
            rho = rho0
            if g:
                alpha = drive_amp * mean_displacement(g, tau_dm, step * dt)
                if alpha != 0.0:
                    rho = _displace_all(rho0, alpha, space)
                    rho = 0.5 * (rho + rho.conj().T)
            record(step)
        return rho, times, pops, traces, leaks, n_steps

    sectors = None if g else _Sectors(chans)
    state = sectors.pack(rho) if sectors else None
    if state is None:
        state, dissipator, dagger, unpack = rho, chans.dissipator, _dagger, _same
    else:
        dissipator, dagger, unpack = sectors.dissipator, sectors.dagger, sectors.unpack
    amp_prev = 0.0  # mean_displacement at t = 0
    for step in range(1, n_steps + 1):
        if g:
            amp_next = mean_displacement(g, tau_dm, step * dt)
            d_alpha = drive_amp * (amp_next - amp_prev)
            amp_prev = amp_next
            if d_alpha != 0.0:
                state = _displace_all(state, d_alpha, space)
        state = state + dt * dissipator(state)
        state = 0.5 * (state + dagger(state))
        if is_record(step):
            rho = unpack(state)
            record(step)
    return rho, times, pops, traces, leaks, n_steps


def _dagger(rho: np.ndarray) -> np.ndarray:
    return rho.conj().T


def _same(rho: np.ndarray) -> np.ndarray:
    return rho


def _primary_states(space: HilbertSpace, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The vectors |m, 0, ..., 0> and |m+1, 0, ..., 0> of a space."""
    rest = [0] * (space.n_modes - 1)
    return number_state(space, [m] + rest), number_state(space, [m + 1] + rest)


def _run_cycle(
    space: HilbertSpace,
    noise: NoiseModel,
    drive_scale: float,
    psi0: np.ndarray,
    target: np.ndarray,
    g: float,
    tau_dm: float,
    tau_int: float,
    populate: str,
    dt: float | None = None,
    rho0: np.ndarray | None = None,
    record_every: int | None = None,
    leak_tol: float = DEFAULT_LEAK_TOL,
    record_times=None,
    readout: np.ndarray | None = None,
) -> PropagationResult:
    """One populate run of either backend, from its space, noise and drive scale.

    Starts from rho0 (default |psi0><psi0|) and reads readout (default the
    vector target).  Signal runs drive with heating disabled; background
    runs heat with the drive off.  drive_scale multiplies every
    displacement increment.
    """
    if populate not in ("signal", "background"):
        raise InvalidArgument("populate must be 'signal' or 'background'")
    signal = populate == "signal"
    chans = _ChannelSet(space, noise.heating_off() if signal else noise)
    if dt is None:
        dt = default_dt(tau_dm, chans.total_rate)
    if record_every is None:
        record_every = max(1, max(1, int(round(tau_int / dt))) // 800)
    record_steps = None
    if record_times is not None:
        record_steps = {int(round(t / dt)) for t in np.asarray(record_times, dtype=float)}
    rho = rho0.copy() if rho0 is not None else np.outer(psi0, psi0.conj())

    rho, times, pops, traces, leaks, n_steps = _propagate(
        space, rho, chans, drive_scale, g if signal else 0.0, tau_dm, tau_int, dt,
        target if readout is None else readout, record_every, leak_tol, record_steps,
    )
    return PropagationResult(
        times=np.asarray(times),
        population=np.asarray(pops),
        trace_defect=np.asarray(traces),
        leakage=np.asarray(leaks),
        dt=dt,
        n_steps=n_steps,
        final_state=rho,
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
    record_every: int | None = None,
    leak_tol: float = DEFAULT_LEAK_TOL,
    record_times=None,
    readout: np.ndarray | None = None,
) -> PropagationResult:
    """Integration-window propagation of the full tensor-product model.

    Starts from the distributed state U_ED |m,0,...,0> (or a supplied rho0,
    e.g. one degraded by a lossy distribution gate) and tracks the target
    projector expectation after the inverse gate, i.e. the overlap with
    U_ED |m+1,0,...,0>.  A supplied readout (a Hermitian observable, e.g.
    the target projector pulled back through a lossy inverse gate) is read
    instead.  Signal runs drive with heating disabled; background runs heat
    with the drive off.
    """
    if m < 0 or m + 1 >= space.cutoff:
        raise InvalidArgument("need fock_m >= 0 and cutoff > m+1")
    psi0, target = _primary_states(space, m)
    if ed is not None:
        psi0 = apply_plan(psi0, ed, space)
        target = apply_plan(target, ed, space)
    return _run_cycle(
        space, noise, 1.0, psi0, target, g, tau_dm, tau_int, populate, dt,
        rho0, record_every, leak_tol, record_times, readout,
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
    record_every: int | None = None,
    leak_tol: float = DEFAULT_LEAK_TOL,
    record_times=None,
    rho0: np.ndarray | None = None,
    readout: np.ndarray | None = None,
) -> PropagationResult:
    """Reduced single-mode backend: primary cavity with transformed channels.

    The collective drive concentrates on the primary mode as sqrt(N) x
    delta_alpha; the DM-induced downward transitions are inherent in the
    displacement steps.  Valid for any N; cross-validated against the full
    backend at N = 2.  A supplied readout observable replaces the |m+1>
    projector, as in propagate_cycle.
    """
    space = HilbertSpace(1, cutoff if cutoff is not None else m + 4)
    psi0, target = _primary_states(space, m)
    return _run_cycle(
        space, effective_noise_model(rates), math.sqrt(n_cavities), psi0, target, g,
        tau_dm, tau_int, populate, dt, rho0, record_every, leak_tol, record_times, readout,
    )


# ---------------------------------------------------------------------------
# Beamsplitter-infidelity model
# ---------------------------------------------------------------------------

def _evolve_window(
    rho: np.ndarray,
    chans: _ChannelSet,
    spec,
    duration: float,
    n_sub: int,
    inverse: bool = False,
    adjoint: bool = False,
) -> np.ndarray:
    """Evolve one lossy window: exact splitter substeps (if spec) + dissipator.

    inverse runs the splitter backwards.  With adjoint, rho is an observable
    and each substep runs the adjoint map: the adjoint dissipator update,
    then O -> U_sub^dag O U_sub.
    """
    space = chans.space
    dt = duration / n_sub
    sub = modes = None
    if spec is not None:
        sub = pair_unitary(
            BeamsplitterSpec(spec.mode_a, spec.mode_b, spec.theta / n_sub, spec.phi),
            space.cutoff,
        )
        if inverse != adjoint:
            sub = sub.conj().T
        modes = (spec.mode_a, spec.mode_b)
    for _ in range(n_sub):
        if sub is not None and not adjoint:
            rho = apply_left(sub, rho, modes, space)
            rho = apply_right_dag(sub, rho, modes, space)
        rho = rho + dt * chans.dissipator(rho, adjoint)
        rho = 0.5 * (rho + rho.conj().T)
        if sub is not None and adjoint:
            rho = apply_left(sub, rho, modes, space)
            rho = apply_right_dag(sub, rho, modes, space)
    return rho


def _run_windows(
    rho: np.ndarray,
    space: HilbertSpace,
    windows,
    inverse: bool = False,
    adjoint: bool = False,
) -> np.ndarray:
    """Run a lossy gate given as (noise, splitter or None, duration) windows in gate order.

    inverse runs the inverse gate: the windows in reverse order, each
    splitter backwards.  With adjoint, rho holds a Hermitian observable O
    and the result is the Heisenberg-picture image G^dag(O) of the same gate
    G (the order reversed once more, each window through its adjoint
    substeps), so that Re Tr(G^dag(O) r) = Re Tr(O G(r)) for every state r.
    """
    for noise, spec, duration in (windows[::-1] if inverse != adjoint else windows):
        chans = _ChannelSet(space, noise)
        n_sub = max(64, int(math.ceil(duration * chans.total_rate / 2e-3))) if duration > 0 else 1
        rho = _evolve_window(rho, chans, spec, duration, n_sub, inverse, adjoint)
    return rho


def swap_fidelity(
    multiplier: float,
    g_bs: float,
    gamma_up: float,
    gamma_down: float,
    gamma_phi: float,
    cutoff: int = 3,
    n_sub: int = 256,
    elevate_heating: bool = True,
) -> float:
    """P(single photon entering mode a exits mode b) after a theta = pi/2 swap."""
    space = HilbertSpace(2, cutoff)
    noise = NoiseModel.uniform(2, gamma_up, gamma_down, gamma_phi).elevated(
        multiplier, (0, 1), elevate_heating)
    spec = BeamsplitterSpec(0, 1, math.pi / 2, math.pi / 2)
    duration = spec.theta / g_bs
    psi = number_state(space, [1, 0])
    rho = np.outer(psi, psi.conj())
    rho = _evolve_window(rho, _ChannelSet(space, noise), spec, duration, n_sub)
    idx = space.index_of([0, 1])
    return float(rho[idx, idx].real)


@lru_cache(maxsize=32)
def calibrate_bs_multiplier(
    f_bs: float,
    g_bs: float,
    gamma_up: float,
    gamma_down: float,
    gamma_phi: float,
    elevate_heating: bool = True,
) -> float:
    """Common rate multiplier whose pi/2 single-photon swap fidelity equals f_bs.

    The bisection is a pure function of its float and bool arguments, so the
    result is cached per exact argument tuple (a raised FidelityUnreachable
    is not cached).  Callers pass the mean pair rates from _mean_pair_rates,
    whose fsum means are bit-identical for uniform rates at any cavity
    count, so every N of a uniform array shares one calibration.
    """
    if not 0 < f_bs <= 1:
        raise InvalidArgument("f_bs must lie in (0, 1]")
    if g_bs <= 0:
        raise InvalidArgument("g_bs must be positive")

    def fid(mult):
        return swap_fidelity(mult, g_bs, gamma_up, gamma_down, gamma_phi,
                             elevate_heating=elevate_heating)

    base = fid(1.0)
    if f_bs >= base:
        if f_bs - base < 1e-9:
            return 1.0
        raise FidelityUnreachable(
            f"requested fidelity {f_bs} exceeds the base-rate limit {base:.9f}"
        )
    lo, hi = 1.0, 2.0
    while fid(hi) > f_bs:
        lo, hi = hi, hi * 2.0
        if hi > 1e9:
            raise FidelityUnreachable("could not bracket the requested fidelity")
    while (hi - lo) / hi > CALIBRATION_REL_TOL:
        mid = 0.5 * (lo + hi)
        if fid(mid) > f_bs:
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
    elevate_heating: bool = True,
    adjoint: bool = False,
) -> np.ndarray:
    """Apply the distribution gate as a lossy channel to a density matrix on space.

    Each splitter runs for theta/g_bs under its Hamiltonian while the two
    coupled cavities carry rates elevated by the calibrated multiplier; the
    other cavities keep their base rates.  f_bs = 1 reduces to the ideal
    unitary conjugation.

    With adjoint, rho holds a Hermitian observable O and the result is the
    Heisenberg-picture image G^dag(O) of the same gate G (see _run_windows).
    """
    if plan.n_cavities != space.n_modes:
        raise InvalidArgument("plan and space disagree on the cavity count")
    if f_bs >= 1.0:
        return apply_plan_rho(rho, plan, space, inverse != adjoint)
    if multiplier is None:
        multiplier = calibrate_bs_multiplier(f_bs, g_bs, *_mean_pair_rates(base_noise),
                                             elevate_heating=elevate_heating)
    windows = [
        (base_noise.elevated(multiplier, (spec.mode_a, spec.mode_b), elevate_heating),
         spec, spec.theta / g_bs)
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
    elevate_heating: bool = True,
    adjoint: bool = False,
) -> np.ndarray:
    """Reduced-model beamsplitter window: elevated transformed rates, no drive.

    One layer of the binary tree on the effective mode (see the module
    docstring).  With adjoint, rho is an observable and the window's adjoint
    map is applied.
    """
    noise = effective_noise_model(rates).elevated(multiplier, (0,), elevate_heating)
    window = (noise if heating_on else noise.heating_off(), None, duration)
    return _run_windows(rho, HilbertSpace(1, rho.shape[0]), [window], adjoint=adjoint)
