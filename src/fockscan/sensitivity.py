"""Closed-form science outputs: thermal occupation, scan rate, exclusion reach.

The scan rate is the DM bandwidth (one coherence linewidth, 1/tau_dm, per
tuning step) divided by the per-step exposure needed to reach the target
signal-to-noise ratio zeta at the target kinetic mixing.  The efficiency
factor eta is an input here; the protocol layer measures it as the ratio of
simulated to ideal peak SNR, and eta = 1 gives the loss-free curves.

One relation gives all three: the per-step exposure
tau_tot = zeta^2 w n_th / (4 eta^2 g^4 tau_dm^2 Q_cav N^2 (m+1)), stated only
in `_exposure`.  `scan_rate` and `reach_band` read it forwards, and
`exclusion_epsilon` inverts it through its eps^-4 scaling.  `_exposure`
evaluates the rate through two independently coded routes (direct SI and
natural-units-then-convert) and requires them to agree to 1e-10 relative,
so every call of the three runs that standing dimensional audit.
"""
from __future__ import annotations

import math
import sys
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
_MAX_CHUNK = 8192


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
    expm1 (numpy's vectorised ones are not libm's on every CPU).  Raises
    the "too hot" InvalidArgument (see `_outside_model`) where hbar w / k T
    is below the smallest normal float: there 1/expm1 has lost its
    precision, overflows to inf, or divides by zero.
    """
    if temp <= 0:
        raise InvalidArgument("temperature must be positive")
    if np.any(np.less_equal(omega, 0)):
        raise InvalidArgument("omega must be positive")
    x = HBAR * omega / (K_B * temp)
    hot = np.flatnonzero(np.less(x, sys.float_info.min))
    if hot.size:
        raise _outside_model("hot", temp, np.ravel(omega)[hot[0]])
    if isinstance(x, np.ndarray):
        # _bose's two branches, each over its own entries
        cold = x > 40.0
        n_th = np.empty_like(x)
        n_th[~cold] = 1.0 / _scalar_map(math.expm1, x[~cold])
        n_th[cold] = _scalar_map(math.exp, -x[cold])
        return n_th
    return _bose(x)


def _scalar_map(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), float, count=x.size)


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

    The one statement of the exposure relation, which `scan_rate`,
    `reach_band` and `exclusion_epsilon` all evaluate.  Given arrays (one
    entry per step) it applies the same float operations in the same order,
    elementwise, with every per-step power written as a product (see
    `drive._overflow_checked`); a step-invariant left prefix of a product
    is then simply evaluated once.  Raises InvalidArgument if the exposure
    leaves the float range on any step (see `_require_in_range`), and
    ArithmeticError if the SI and natural-unit routes disagree on any step.
    """
    g = _coupling(params.target_epsilon, form_factor_g, params.rho_dm, volume, omega)
    tau_dm = params.q_dm / omega
    g4 = _overflow_checked((g * g) * (g * g), g)
    tau_dm2 = _overflow_checked(tau_dm * tau_dm, tau_dm)
    # a float gives inf where this overflows; numpy is made to do the same,
    # and _require_in_range names the cause
    with np.errstate(over="ignore"):
        tau_tot = (
            params.zeta_snr ** 2 * omega * n_th
            / (4.0 * params.eta ** 2 * g4 * tau_dm2 * params.q_cav
               * params.n_cavities ** 2 * (params.fock_m + 1))
        )
    width = omega / params.q_dm
    _require_in_range(n_th, tau_tot, width, omega, params.temp_cavity)
    rate_si = width / tau_tot

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


def _require_in_range(n_th, tau_tot, width, omega, temp: float) -> None:
    """Raise InvalidArgument at the first omega whose exposure left the float range.

    Cold end: below the smallest normal float the thermal occupation or the
    exposure has lost its precision (n_th does at hbar w / k T > 708.4, and
    is 0 past 745), and an exposure below width / (largest float) would
    overflow the rate.  That test divides nothing by the exposure, so no
    floating-point error state can preempt it.  Hot end: an exposure so
    long (or inf) that the rate width / tau_tot falls below the smallest
    normal float.  Either way the cavity is outside the model.
    """
    tiny = sys.float_info.min
    floor = np.maximum(tiny, width / sys.float_info.max)
    cold = np.flatnonzero(np.less(n_th, tiny) | np.less(tau_tot, floor))
    if cold.size:
        raise _outside_model("cold", temp, np.ravel(omega)[cold[0]])
    hot = np.flatnonzero(np.less(width / tau_tot, tiny))
    if hot.size:
        raise _outside_model("hot", temp, np.ravel(omega)[hot[0]])


def _outside_model(side: str, temp: float, omega) -> InvalidArgument:
    """The "too cold" or "too hot" error at omega, naming the temperature, frequency and hbar w / k T."""
    w = float(omega)
    x = HBAR * w / (K_B * temp)
    return InvalidArgument(
        f"cavity temperature {temp:g} K is too {side} at "
        f"{w / (2.0 * math.pi):g} Hz: hbar w / k T = {x:.4g} takes the "
        "per-step exposure out of the float range, outside the model"
    )


def exclusion_epsilon(omega: float, params: SensitivityParams, tau_tot: float) -> float:
    """Kinetic mixing excluded after exposure tau_tot at frequency omega.

    The per-step exposure tau_step that `_exposure` gives at the target
    mixing, with the TM010 frequency-volume relation V(w), scales as
    eps^-4, so the mixing whose exposure is tau_tot is
    eps(w) = target_epsilon (tau_step / tau_tot)^(1/4), exactly.  Raises
    InvalidArgument where the exposure leaves the float range, as
    scan_rate does.
    """
    if tau_tot <= 0 or omega <= 0:
        raise InvalidArgument("omega and tau_tot must be positive")
    n_th = thermal_occupation(omega, params.temp_cavity)
    tau_step = _exposure(params, omega, cavity_volume_tm010(omega), form_factor_tm010(), n_th)[0]
    return params.target_epsilon * (tau_step / tau_tot) ** 0.25


@dataclass(frozen=True, eq=False)
class ReachBand:
    """Frequency interval covered before the time budget runs out.

    Stores one float per tuning step, its exposure tau_tot, in the
    read-only chunk blocks `reach_band` evaluated them in (`blocks`).
    `exposures` joins them on request.  The step frequencies and the
    running time are derived on request (`steps`, `strided`) block by
    block, carrying the last frequency and the running time from one block
    into the next: the same sequential products and sums that `reach_band`
    evaluated, so they are bit-identical to its own.
    """

    omega_start: float
    omega_end: float
    n_steps: int
    total_time: float
    q_dm: float              # step k+1 sits at (1 + 1/q_dm) times step k's frequency
    blocks: tuple            # read-only float64 arrays: tau_tot of each step, in order

    @property
    def freq_start_hz(self) -> float:
        return self.omega_start / (2.0 * math.pi)

    @property
    def freq_end_hz(self) -> float:
        return self.omega_end / (2.0 * math.pi)

    @property
    def exposures(self) -> np.ndarray:
        """(n_steps,) read-only: tau_tot of each step."""
        exposures = np.concatenate(self.blocks)
        exposures.flags.writeable = False
        return exposures

    @property
    def steps(self) -> np.ndarray:
        """(n_steps, 3) read-only table: omega, tau_tot and cumulative time per step."""
        return self.strided(1)

    def strided(self, stride: int) -> np.ndarray:
        """Rows 0, stride, 2 stride, ... of `steps`, one block at a time."""
        table = np.empty((-(-self.n_steps // stride), 3))
        row, first, omega, spent = 0, 0, self.omega_start, 0.0
        for block in self.blocks:
            # omega and spent carry the next step's frequency and the time so far
            omegas = _frequencies(omega, self.q_dm, block.size + 1)
            cum = np.add.accumulate(np.r_[spent, block])
            omega, spent = omegas[-1], cum[-1]
            pick = slice(-first % stride, block.size, stride)
            rows = np.stack([omegas[pick], block[pick], cum[1:][pick]], axis=1)
            table[row:row + len(rows)] = rows
            row, first = row + len(rows), first + block.size
        table.flags.writeable = False
        return table


def _frequencies(omega_first, q_dm: float, n: int) -> np.ndarray:
    """n tuning-step frequencies from omega_first: the loop's `omega *= 1 + 1/q_dm`, in sequence."""
    omegas = np.full(n, 1.0 + 1.0 / q_dm)
    omegas[0] = omega_first
    with np.errstate(over="ignore"):
        return np.multiply.accumulate(omegas, out=omegas)


def reach_band(
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
    The result keeps each step's exposure only, in its chunk blocks (see
    `ReachBand`).

    Steps are evaluated in chunks (1, then 1024 doubling to `_MAX_CHUNK`),
    and the result is bit-identical to a loop of `scan_rate` calls, one
    per step:

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
    g_form = form_factor_tm010()
    blocks = []
    n_steps, spent, tau_tot = 0, 0.0, math.inf
    omegas = np.array([omega_start] if max_steps > 0 else [])
    while omegas.size:
        taus = _chunk_exposures(params, omegas, g_form) if n_steps else None
        if taus is None:
            taus = _replay(params, omegas, spent, time_budget, g_form)
        cum = np.add.accumulate(np.r_[spent, taus])[1:]
        over = np.flatnonzero(cum > time_budget)
        stop = int(over[0]) if over.size else taus.size
        if stop:
            blocks.append(taus[:stop])
            blocks[-1].flags.writeable = False
            n_steps += stop
            omega_end, spent = omegas[stop - 1], cum[stop - 1]
        if stop < taus.size:
            tau_tot = float(taus[stop])
            break
        del cum  # freed before the next chunk is evaluated
        size = min(max(_FIRST_CHUNK, 2 * omegas.size), _MAX_CHUNK, max_steps - n_steps)
        omegas = _frequencies(omega_end, params.q_dm, size + 1)[1:]
    if not n_steps:
        raise BudgetTooSmall(
            f"budget {time_budget:g} s cannot afford one step (first step needs {tau_tot:g} s)"
        )
    return ReachBand(
        omega_start=omega_start,
        omega_end=float(omega_end),
        n_steps=n_steps,
        total_time=float(spent),
        q_dm=params.q_dm,
        blocks=tuple(blocks),
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
