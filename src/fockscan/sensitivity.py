"""Closed-form science outputs: thermal occupation, scan rate, exclusion reach.

The scan rate is the DM bandwidth (one coherence linewidth, 1/tau_dm, per
tuning step) divided by the per-step exposure needed to reach the target
signal-to-noise ratio zeta at the target kinetic mixing.  The efficiency
factor eta is an input here; the protocol layer measures it as the ratio of
simulated to ideal peak SNR, and eta = 1 gives the loss-free curves.

Every formula is evaluated through two independently coded routes (direct
SI and natural-units-then-convert) and the pair is required to agree to
1e-10 relative, as a standing dimensional audit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drive import (
    C_LIGHT,
    HBAR,
    K_B,
    CavityGeometry,
    DMParams,
    _coupling,
    _overflow_checked,
    cavity_volume_tm010,
    form_factor_tm010,
)
from .errors import BudgetTooSmall, InvalidArgument

_AUDIT_RTOL = 1e-10
# reach_band evaluates its tuning steps in chunks that double from the first
# size to the cap, after a first step of its own.
_FIRST_CHUNK = 1024
_MAX_CHUNK = 65536


@dataclass(frozen=True)
class SensitivityParams:
    """Inputs for the projection formulas (SI units; temperatures in K)."""

    rho_dm: float
    q_cav: float
    n_cavities: int
    fock_m: int
    temp_cavity: float
    target_epsilon: float
    q_dm: float = 1e6
    zeta_snr: float = 1.62
    eta: float = 1.0

    def __post_init__(self):
        if self.zeta_snr <= 0:
            raise InvalidArgument("zeta_snr must be positive")
        if not 0 < self.eta <= 1:
            raise InvalidArgument("eta must lie in (0, 1]")


def thermal_occupation(omega, temp: float):
    """Bose-Einstein occupation (exp(hbar w / k T) - 1)^-1, underflow-safe.

    Elementwise over an array of omega, through the same scalar exp and
    expm1 (numpy's vectorised ones are not libm's on every CPU).
    """
    if temp <= 0:
        raise InvalidArgument("temperature must be positive")
    if np.any(np.less_equal(omega, 0)):
        raise InvalidArgument("omega must be positive")
    x = HBAR * omega / (K_B * temp)
    if isinstance(x, np.ndarray):
        return np.fromiter(map(_bose, x.tolist()), float, count=x.size)
    return _bose(x)


def _bose(x: float) -> float:
    if x > 40.0:
        # 1/(e^x - 1) = e^-x (1 + e^-x + ...); the correction is < e^-40
        return math.exp(-x)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class ScanRateResult:
    rate: float           # DM bandwidth per second, rad/s per s
    rate_hz_per_s: float  # same in Hz/s
    tau_tot_step: float   # exposure per tuning step, s


def scan_rate(params: SensitivityParams, geometry: CavityGeometry) -> ScanRateResult:
    """Scan rate at the target mixing, plus the per-step exposure.

    tau_tot = zeta^2 w n_th / (4 eta^2 g^4 tau_dm^2 Q_cav N^2 (m+1)),
    rate = (w / Q_dm) / tau_tot
         = 16 eta^2 eps^4 G^2 rho^2 V^2 Q_dm Q_cav N^2 (m+1) / (hbar^2 zeta^2 n_th).
    """
    omega = geometry.omega
    n_th = thermal_occupation(omega, params.temp_cavity)
    DMParams(epsilon=params.target_epsilon, rho_dm=params.rho_dm, omega_dm=omega, q_dm=params.q_dm)
    tau_tot, rate_si = _exposure(params, omega, geometry.volume, geometry.form_factor_g, n_th)
    return ScanRateResult(
        rate=rate_si,
        rate_hz_per_s=rate_si / (2.0 * math.pi),
        tau_tot_step=tau_tot,
    )


def _exposure(params, omega, volume, form_factor_g, n_th):
    """(tau_tot, SI scan rate) of one tuning step, after the unit audit.

    The one implementation of `scan_rate`'s formulas.  Given arrays (one
    entry per step) it applies the same float operations in the same order,
    elementwise, with every per-step power written as a product (see
    `drive._overflow_checked`); a step-invariant left prefix of a product
    is then simply evaluated once.  Raises
    InvalidArgument if the thermal occupation underflows to 0 on any step
    (hbar w / k T > 745: the cavity is too cold for the model, and the
    exposure would be zero), and ArithmeticError if the SI and natural-unit
    routes disagree on any step.
    """
    _require_warm(n_th, omega, params.temp_cavity)
    g = _coupling(params.target_epsilon, form_factor_g, params.rho_dm, volume, omega)
    tau_dm = params.q_dm / omega
    g4 = _overflow_checked((g * g) * (g * g), g)
    tau_dm2 = _overflow_checked(tau_dm * tau_dm, tau_dm)
    tau_tot = (
        params.zeta_snr ** 2 * omega * n_th
        / (4.0 * params.eta ** 2 * g4 * tau_dm2 * params.q_cav
           * params.n_cavities ** 2 * (params.fock_m + 1))
    )
    rate_si = (omega / params.q_dm) / tau_tot

    # independent route: natural units (hbar = c = 1, rad/s as the energy unit)
    rho_nat = params.rho_dm * C_LIGHT ** 3 / HBAR   # (rad/s)^4
    vol_nat = volume / C_LIGHT ** 3                 # (s/rad)^3
    vol_nat2 = _overflow_checked(vol_nat * vol_nat, vol_nat)
    rate_nat = (
        16.0 * params.eta ** 2 * params.target_epsilon ** 4 * form_factor_g ** 2
        * rho_nat ** 2 * vol_nat2 * params.q_dm * params.q_cav
        * params.n_cavities ** 2 * (params.fock_m + 1)
        / (params.zeta_snr ** 2 * n_th)
    )
    if np.any(abs(rate_nat - rate_si) > _AUDIT_RTOL * abs(rate_si)):
        raise ArithmeticError(
            f"unit audit failed: SI route {rate_si!r} vs natural route {rate_nat!r}"
        )
    return tau_tot, rate_si


def _require_warm(n_th, omega, temp: float) -> None:
    """Raise InvalidArgument if the thermal occupation underflowed to 0 at any omega.

    That happens for hbar w / k T > 745: the cavity is too cold for the model.
    """
    cold = np.flatnonzero(np.equal(n_th, 0.0))
    if cold.size:
        w = float(np.ravel(omega)[cold[0]])
        x = HBAR * w / (K_B * temp)
        raise InvalidArgument(
            f"cavity temperature {temp:g} K is too cold at "
            f"{w / (2.0 * math.pi):g} Hz: hbar w / k T = {x:.4g} underflows the "
            "thermal occupation to 0, outside the model"
        )


def exclusion_epsilon(omega: float, params: SensitivityParams, tau_tot: float) -> float:
    """Kinetic mixing excluded after exposure tau_tot at frequency omega.

    eps(w) = [ n_th zeta^2 w hbar^2 /
               (16 eta^2 G^2 rho^2 Q_dm^2 Q_cav V(w)^2 tau_tot (m+1) N^2) ]^(1/4),
    with V(w) the TM010 frequency-volume relation.  Raises InvalidArgument
    where the thermal occupation underflows to 0, as scan_rate does.
    """
    if tau_tot <= 0 or omega <= 0:
        raise InvalidArgument("omega and tau_tot must be positive")
    volume = cavity_volume_tm010(omega)
    g_form = form_factor_tm010()
    n_th = thermal_occupation(omega, params.temp_cavity)
    _require_warm(n_th, omega, params.temp_cavity)
    eps4_si = (
        n_th * params.zeta_snr ** 2 * omega * HBAR ** 2
        / (16.0 * params.eta ** 2 * g_form ** 2 * params.rho_dm ** 2
           * params.q_dm ** 2 * params.q_cav * volume ** 2 * tau_tot
           * (params.fock_m + 1) * params.n_cavities ** 2)
    )
    # independent route in natural units
    rho_nat = params.rho_dm * C_LIGHT ** 3 / HBAR
    vol_nat = volume / C_LIGHT ** 3
    eps4_nat = (
        n_th * params.zeta_snr ** 2 * omega
        / (16.0 * params.eta ** 2 * g_form ** 2 * rho_nat ** 2 * vol_nat ** 2
           * params.q_dm ** 2 * params.q_cav * tau_tot
           * (params.fock_m + 1) * params.n_cavities ** 2)
    )
    eps_si = eps4_si ** 0.25
    if abs(eps4_nat ** 0.25 - eps_si) > _AUDIT_RTOL * eps_si:
        raise ArithmeticError("unit audit failed in exclusion_epsilon")
    return eps_si


@dataclass(frozen=True, eq=False)
class ReachBand:
    """Frequency interval covered before the time budget runs out."""

    omega_start: float
    omega_end: float
    n_steps: int
    total_time: float
    steps: np.ndarray  # (n_steps, 3), read-only: omega, tau_tot, cumulative time per step

    @property
    def freq_start_hz(self) -> float:
        return self.omega_start / (2.0 * math.pi)

    @property
    def freq_end_hz(self) -> float:
        return self.omega_end / (2.0 * math.pi)


def reach_band(
    target_epsilon: float,
    time_budget: float,
    params: SensitivityParams,
    omega_start: float,
    max_steps: int = 2_000_000,
) -> ReachBand:
    """Accumulate tuning steps of width 1/tau_dm until the budget is spent.

    The step size is evaluated at the running frequency (a geometric-like
    progression, d omega = omega / Q_dm), and each step costs the exposure
    that reaches zeta_snr at the target mixing.  The band ends before the
    first step whose cost would take the running time past the budget.

    Steps are evaluated in chunks (1, then 1024 doubling to 65536), and the
    result is bit-identical to a loop of `scan_rate` calls, one per step:

    - the frequencies come from a sequential `np.multiply.accumulate` and
      the running time from a sequential `np.add.accumulate`, the same
      float products and sums as the loop's `omega *= r` and `spent += tau`;
    - `*`, `/` and sqrt are correctly rounded, so numpy's array operations
      give the loop's floats; the per-step powers are products (x*x,
      x*x*x, (x*x)*(x*x)) in both, and only exp and expm1 go through
      Python's scalar operation per step (numpy's SIMD versions differ
      from libm in the last bit on some CPUs, which would make the output
      depend on the machine);
    - the first step runs through `scan_rate` itself, which checks the
      step-invariant parameters as the loop did;
    - a chunk in which numpy raises any floating-point flag (division by
      zero, overflow, invalid), a step fails a check, or the unit audit
      fails is replayed step by step through `scan_rate`.  The replay
      raises exactly where the loop raised, and raises nothing for steps
      past the end of the band.
    """
    if time_budget <= 0:
        raise BudgetTooSmall("time budget must be positive")
    work = SensitivityParams(
        rho_dm=params.rho_dm, q_cav=params.q_cav, n_cavities=params.n_cavities,
        fock_m=params.fock_m, temp_cavity=params.temp_cavity,
        target_epsilon=target_epsilon, q_dm=params.q_dm,
        zeta_snr=params.zeta_snr, eta=params.eta,
    )
    g_form = form_factor_tm010()
    blocks = []
    n_steps, spent, tau_tot = 0, 0.0, math.inf
    omegas = np.array([omega_start] if max_steps > 0 else [])
    while omegas.size:
        taus = _chunk_exposures(work, omegas, g_form) if n_steps else None
        if taus is None:
            taus = _replay(work, omegas, spent, time_budget, g_form)
        cum = np.add.accumulate(np.r_[spent, taus])[1:]
        over = np.flatnonzero(cum > time_budget)
        stop = int(over[0]) if over.size else taus.size
        blocks.append(np.column_stack((omegas[:stop], taus[:stop], cum[:stop])))
        n_steps += stop
        if stop < taus.size:
            tau_tot = float(taus[stop])
            break
        spent = cum[-1]
        size = min(max(_FIRST_CHUNK, 2 * omegas.size), _MAX_CHUNK, max_steps - n_steps)
        ratio = 1.0 + 1.0 / params.q_dm
        with np.errstate(over="ignore"):
            omegas = np.multiply.accumulate(np.r_[omegas[-1], np.full(size, ratio)])[1:]
    if not n_steps:
        raise BudgetTooSmall(
            f"budget {time_budget:g} s cannot afford one step (first step needs {tau_tot:g} s)"
        )
    steps = np.concatenate(blocks)
    steps.flags.writeable = False
    return ReachBand(
        omega_start=omega_start,
        omega_end=float(steps[-1, 0]),
        n_steps=n_steps,
        total_time=float(steps[-1, 2]),
        steps=steps,
    )


def _chunk_exposures(params, omegas, g_form):
    """tau_tot of every step in `omegas`, or None if the loop could raise on one of them.

    Python float arithmetic raises only where numpy flags division by zero,
    overflow or an invalid operation (a power that overflows raises in the
    loop, and flags overflow here), and the exponentials here are Python's
    own.  So a chunk that raises nothing here, and passes the per-step
    checks and the audit, is one the loop completes.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            volumes = cavity_volume_tm010(omegas)
            if not np.all(volumes > 0):
                return None
            n_th = thermal_occupation(omegas, params.temp_cavity)
            return _exposure(params, omegas, volumes, g_form, n_th)[0]
    except (ArithmeticError, ValueError):
        return None


def _replay(params, omegas, spent, time_budget, g_form):
    """The per-step loop over one chunk: tau_tot up to and including the step that ends the band."""
    taus = []
    for omega in omegas.tolist():
        geometry = CavityGeometry(omega=omega, volume=cavity_volume_tm010(omega),
                                  form_factor_g=g_form)
        taus.append(scan_rate(params, geometry).tau_tot_step)
        if spent + taus[-1] > time_budget:
            break
        spent += taus[-1]
    return np.array(taus)
