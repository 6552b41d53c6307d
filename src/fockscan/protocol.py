"""Full detection-cycle orchestration and figure-of-merit computation.

One cycle is: prepare |m> in the primary cavity, distribute it over the
array, integrate the drive for tau_int, undo the distribution, and read out
the (m+1)-photon primary state.  The cycle SNR over a total exposure
tau_tot is

    SNR(tau_int) = (n_s / tau_cycle) tau_tot / sqrt((n_b / tau_cycle) tau_tot),

with tau_cycle = tau_int + 2 tau_ed + tau_spam.  Signal and background
populations come from separate runs (heating off with the drive on, and
vice versa).

The simulated sweep gives the measured optimal integration time and the
efficiency eta used by the sensitivity projections; optimal_tau_int gives
the a-priori one, by maximising the closed-form survival-times-buildup SNR.
The closed-form rates themselves (R_s ~ N (m+1), background (m+1) x
averaged heating) are not computed here: the engine reproduces them, and
the tests hold it to them through tests/analytic_model.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .drive import (
    CavityGeometry,
    DMParams,
    cavity_volume_tm010,
    coupling_g,
    form_factor_tm010,
    rho_dm_si,
)
from .errors import DimensionCeilingExceeded, InvalidArgument
from .fock import HilbertSpace, occupations
from .gates import EDPlan, apply_plan, apply_plan_rho, make_plan
from .lindblad import (
    NoiseModel,
    TransformedRates,
    _factor,
    _mean_pair_rates,
    _primary_states,
    calibrate_bs_multiplier,
    effective_lossy_window,
    effective_propagate_cycle,
    lossy_ed_apply,
    propagate_cycle,
    transformed_rates,
)
from .parallel import pool_map
from .sensitivity import thermal_occupation

FULL_BACKEND_MAX_MODES = 3
# A full-backend run holds at its peak about FULL_BACKEND_WORKING_COPIES
# dim x dim complex matrices (rho0 and readout, their real coordinate
# tensors and the temporaries that convert them, and with lossy gates the
# windows' channel-application temporaries; tracemalloc put a whole
# simulate_populations call at 5.7 with ideal gates and 8.3 with lossy ones
# at N=3, cutoff 7, factors included) besides its one-mode channel matrices
# of cutoff^4 entries, dim^2 each at N=2, counted here as complex although
# the cached factors are real: every entry of the _factor cache, plus
# FULL_BACKEND_FACTOR_WORKING for the factor being built (5 at its peak) and
# the engine's basis and vectors.
FULL_BACKEND_WORKING_COPIES = 8
FULL_BACKEND_FACTOR_WORKING = 8
FULL_BACKEND_MAX_BYTES = 2 * 1024 ** 3


def full_backend_bytes(n_cavities: int, cutoff: int, cached: int | None = None) -> int:
    """Peak memory of a full-backend run, with cached factors in the cache (default: its capacity)."""
    if cached is None:
        cached = _factor.cache_info().maxsize
    return 16 * (FULL_BACKEND_WORKING_COPIES * cutoff ** (2 * n_cavities)
                 + (cached + FULL_BACKEND_FACTOR_WORKING) * cutoff ** 4)


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete description of one experiment configuration (SI units)."""

    n_cavities: int
    fock_m: int
    omega: float                       # cavity = DM angular frequency, rad/s
    temp_cavity: float = 0.05          # K
    q_cavity: float = 1e8
    tau_tot: float = 1.0               # s; total exposure
    tau_spam: float = 20e-6            # s; state-prep and measurement cost
    ed_scheme: str = "binary"
    bs_fidelity: float = 1.0           # single-photon swap fidelity; 1 = ideal
    g_bs: float = 2.0 * math.pi * 1e6  # beamsplitter rate, rad/s
    q_dm: float = 1e6
    epsilon: float = 1e-16
    rho_dm: float = rho_dm_si(0.45)
    coupling_override: float | None = None  # g in rad/s, bypassing epsilon/geometry
    dephasing_ratio: float = 0.1       # gamma_phi / gamma_down when deriving noise
    noise: NoiseModel | None = None    # explicit per-cavity rates override
    cutoff: int | None = None          # default fock_m + 4
    backend: str = "auto"              # auto | full | effective
    dt: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_cavities < 1 or self.fock_m < 0:
            raise InvalidArgument("need n_cavities >= 1 and fock_m >= 0")
        if self.backend not in ("auto", "full", "effective"):
            raise InvalidArgument(f"unknown backend {self.backend!r}")
        if min(self.tau_tot, self.tau_spam) < 0 or self.tau_tot == 0:
            raise InvalidArgument("times must be non-negative and tau_tot positive")

    # -- derived quantities -------------------------------------------------

    @property
    def tau_dm(self) -> float:
        return self.q_dm / self.omega

    @property
    def cutoff_eff(self) -> int:
        return self.cutoff if self.cutoff is not None else self.fock_m + 4

    def geometry(self) -> CavityGeometry:
        return CavityGeometry(
            omega=self.omega,
            volume=cavity_volume_tm010(self.omega),
            form_factor_g=form_factor_tm010(),
        )

    def coupling(self) -> float:
        if self.coupling_override is not None:
            return self.coupling_override
        dm = DMParams(
            epsilon=self.epsilon, rho_dm=self.rho_dm, omega_dm=self.omega, q_dm=self.q_dm
        )
        return coupling_g(dm, self.geometry())

    def noise_model(self) -> NoiseModel:
        """Per-cavity rates, derived from (T_cav, Q_cav) unless given explicitly.

        gamma_down = omega / Q_cav; detailed balance sets gamma_up =
        gamma_down n_th / (1 + n_th); gamma_phi = dephasing_ratio x gamma_down.
        """
        if self.noise is not None:
            if self.noise.n_cavities != self.n_cavities:
                raise InvalidArgument("noise override has the wrong cavity count")
            return self.noise
        gamma_down = self.omega / self.q_cavity
        n_th = thermal_occupation(self.omega, self.temp_cavity)
        gamma_up = gamma_down * n_th / (1.0 + n_th)
        gamma_phi = self.dephasing_ratio * gamma_down
        return NoiseModel.uniform(self.n_cavities, gamma_up, gamma_down, gamma_phi)

    def plan(self) -> EDPlan:
        return make_plan(self.ed_scheme, self.n_cavities)

    def tau_ed(self) -> float:
        return self.plan().duration(self.g_bs)

    def tau_cycle(self, tau_int: float) -> float:
        return tau_int + 2.0 * self.tau_ed() + self.tau_spam

    def chosen_backend(self) -> str:
        if self.backend != "auto":
            return self.backend
        n = self.n_cavities
        fits = full_backend_bytes(n, self.cutoff_eff) <= FULL_BACKEND_MAX_BYTES
        if n <= FULL_BACKEND_MAX_MODES and fits:
            return "full"
        return "effective"

    def rates(self) -> TransformedRates:
        return transformed_rates(self.n_cavities, self.noise_model(), self.fock_m)


# Simulated populations are read as Re Tr(O rho) after thousands of steps,
# so one that has decayed to zero comes back as a rounding residue of
# either sign.  The measured residues: down to -5.4e-16 for the m = 5
# signal of a q_cavity 1e5 sweep (158 400 steps), and up to 4.1e-15 in the
# trace defects of the golden runs.  The floor sits over two orders of
# magnitude above both.  A negative population above -POPULATION_FLOOR is
# read as 0; anything lower is an error.
POPULATION_FLOOR = 1e-12


def snr_from_counts(n_s: float, n_b: float, tau_cycle: float, tau_tot: float) -> float:
    """R_s tau_tot / sqrt(R_b tau_tot) with R = n / tau_cycle.

    Gaussian background-count statistics are baked in: the denominator is
    the root of the expected false-positive count.  A zero background with a
    finite signal returns +inf (legitimate in lossless ideal runs).  A
    population within POPULATION_FLOOR below zero is read as 0.
    """
    if min(n_s, n_b) < -POPULATION_FLOOR or tau_cycle <= 0 or tau_tot <= 0:
        raise InvalidArgument("populations must be >= 0 and times positive")
    n_s, n_b = max(n_s, 0.0), max(n_b, 0.0)
    if n_b == 0.0:
        return math.inf if n_s > 0 else 0.0
    return (n_s / tau_cycle) * tau_tot / math.sqrt((n_b / tau_cycle) * tau_tot)


# ---------------------------------------------------------------------------
# Simulated sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    tau_int: np.ndarray          # s, actual (step-aligned) grid
    n_s: np.ndarray
    n_b: np.ndarray
    snr: np.ndarray
    tau_opt: float               # interpolated argmax, s
    snr_max: float               # interpolated peak
    backend: str
    diagnostics: dict


def _interp_peak(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Quadratic interpolation around the discrete argmax (edge-safe)."""
    k = int(np.argmax(y))
    if k == 0 or k == len(y) - 1:
        return float(x[k]), float(y[k])
    x0, x1, x2 = x[k - 1], x[k], x[k + 1]
    y0, y1, y2 = y[k - 1], y[k], y[k + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 ** 2 * (y0 - y1) + x1 ** 2 * (y2 - y0) + x0 ** 2 * (y1 - y2)) / denom
    if a >= 0:
        return float(x1), float(y1)
    xv = -b / (2.0 * a)
    if not x0 <= xv <= x2:
        return float(x1), float(y1)
    c = y1 - a * x1 ** 2 - b * x1
    return float(xv), float(a * xv ** 2 + b * xv + c)


def simulate_populations(config: ProtocolConfig, tau_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """(actual times, n_s, n_b, diagnostics) at the requested integration times.

    Each populate runs through propagate_cycle (full backend) or
    effective_propagate_cycle (effective backend).  With a lossy gate the
    forward gate prepares the state, and the target projector is pulled back
    once through the adjoint of the inverse gate, so each record reads the
    post-inverse population directly: lossy_ed_apply on the full backend,
    one effective_lossy_window per plan layer on the effective one, both at
    the multiplier calibrated for the mean cavity rates.  With ideal gates
    the full backend distributes |m> and |m+1> once, for both populates.
    The full backend raises DimensionCeilingExceeded, before allocating
    anything, when full_backend_bytes exceeds FULL_BACKEND_MAX_BYTES.  The
    t = 0 record of each run is dropped from the returned series; the grid
    starts later.
    """
    grid = np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise InvalidArgument("tau grid must be positive and strictly increasing")
    n, m, plan, backend = config.n_cavities, config.fock_m, config.plan(), config.chosen_backend()
    if backend == "full":
        need = full_backend_bytes(n, config.cutoff_eff)
        if need > FULL_BACKEND_MAX_BYTES:
            raise DimensionCeilingExceeded(
                f"the full backend at dimension {config.cutoff_eff ** n} would need about "
                f"{need / 2 ** 30:.3g} GiB of working matrices, over its "
                f"{FULL_BACKEND_MAX_BYTES / 2 ** 30:g} GiB limit; use the effective backend"
            )
    space = HilbertSpace(n if backend == "full" else 1, config.cutoff_eff)
    noise, rates, g = config.noise_model(), config.rates(), config.coupling()
    diag: dict = {"backend": backend}
    lossy = config.bs_fidelity < 1.0 and bool(plan.sequence)
    psi0, target = _primary_states(space, m)
    rho0 = readout = None
    if lossy:
        multiplier = diag["bs_multiplier"] = calibrate_bs_multiplier(
            config.bs_fidelity, config.g_bs, *_mean_pair_rates(noise))
    elif backend == "full":
        psi = apply_plan(psi0, plan, space)
        rho0, readout = np.outer(psi, psi.conj()), apply_plan(target, plan, space)

    out = {}
    for populate in ("signal", "background"):
        if lossy and backend == "full":
            gate = dict(space=space, plan=plan, f_bs=config.bs_fidelity, g_bs=config.g_bs,
                        base_noise=noise.heating_off() if populate == "signal" else noise,
                        multiplier=multiplier)
            rho0 = lossy_ed_apply(np.outer(psi0, psi0.conj()), **gate)
            readout = lossy_ed_apply(np.outer(target, target.conj()), inverse=True, adjoint=True,
                                     **gate)
        elif lossy:
            rho0, readout = np.outer(psi0, psi0.conj()), np.outer(target, target.conj())
            for layer in plan.layers:
                window = (rates, multiplier, max(s.theta for s in layer) / config.g_bs,
                          populate == "background")
                rho0 = effective_lossy_window(rho0, *window)
                readout = effective_lossy_window(readout, *window, adjoint=True)
        if backend == "full":
            res = propagate_cycle(space, m, noise, g, config.tau_dm, float(grid[-1]), populate,
                                  ed=plan, dt=config.dt, rho0=rho0, readout=readout,
                                  record_times=grid)
        else:
            res = effective_propagate_cycle(n, m, rates, g, config.tau_dm, float(grid[-1]),
                                            populate, dt=config.dt, cutoff=config.cutoff_eff,
                                            rho0=rho0, readout=readout, record_times=grid)
        out[populate] = res
        diag[f"trace_defect_{populate}"] = float(res.trace_defect.max())
        diag[f"leakage_{populate}"] = float(res.leakage.max())
        diag[f"series_{populate}"] = {
            "times": res.times[1:], "trace": res.trace_defect[1:], "leakage": res.leakage[1:],
        }
        diag["dt"] = res.dt
    signal, background = out["signal"], out["background"]
    return signal.times[1:], signal.population[1:], background.population[1:], diag


def snr_sweep(config: ProtocolConfig, tau_grid) -> SweepResult:
    """One cycle simulation per grid point; peak located by quadratic interpolation.

    The grid must cover at least [0.2, 20] tau_dm so the peak search spans
    both the coherent-buildup and depletion-limited regimes.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size < 2:
        raise InvalidArgument("sweep grid needs at least two points")
    if tau_grid[0] > 0.2 * config.tau_dm * 1.0001 or tau_grid[-1] < 20.0 * config.tau_dm * 0.9999:
        raise InvalidArgument("sweep grid must cover at least [0.2, 20] tau_dm")
    times, n_s, n_b, diag = simulate_populations(config, tau_grid)
    snr = np.array([
        snr_from_counts(ns, nb, config.tau_cycle(t), config.tau_tot)
        for t, ns, nb in zip(times, n_s, n_b)
    ])
    finite = np.isfinite(snr)
    if finite.all():
        tau_opt, snr_max = _interp_peak(times, snr)
    else:
        k = int(np.argmax(np.where(finite, snr, -np.inf)))
        tau_opt, snr_max = float(times[k]), float(snr[k])
        if not finite.any():
            tau_opt, snr_max = float(times[-1]), math.inf
    return SweepResult(
        tau_int=times, n_s=n_s, n_b=n_b, snr=snr,
        tau_opt=tau_opt, snr_max=snr_max,
        backend=diag["backend"], diagnostics=diag,
    )


def ideal_reference(config: ProtocolConfig) -> ProtocolConfig:
    """Same protocol with decay/dephasing and splitter loss removed.

    Heating stays on so the background (and hence the SNR normalisation) is
    defined; this is the eta = 1 baseline the efficiency is measured against.
    """
    noise = config.noise_model()
    lossless = NoiseModel(noise.gamma_up, (0.0,) * noise.n_cavities, (0.0,) * noise.n_cavities)
    return replace(config, noise=lossless, bs_fidelity=1.0)


# The sweep grid unless a config sets it, in units of tau_dm: first point,
# last point, point count.
TAU_GRID_TAUDM = (0.2, 40.0, 60)


def default_tau_grid(tau_dm: float, lo: float, hi: float, points: int) -> np.ndarray:
    return np.linspace(lo * tau_dm, hi * tau_dm, points)


# ---------------------------------------------------------------------------
# A-priori integration time
# ---------------------------------------------------------------------------

def optimal_tau_int(
    tau_dm: float, m: int, rates: TransformedRates, tau_overhead: float = 0.0
) -> float:
    """A-priori optimal integration time for the diffusive-buildup SNR model.

    Golden-section maximisation of the survival-times-buildup SNR
    e^{-(m+1) gamma t / 2} (1 - tau_dm / t) sqrt(t / (t + overhead)) over
    the fixed interval (1, 100] tau_dm (the objective is zero up to
    tau_dm), with gamma = rates.gamma_down_eff.  With zero overhead the
    maximiser is (tau_dm / 2) (1 + sqrt(1 + 8 / ((m+1) gamma tau_dm))).
    Where both probes underflow to 0.0 (large (m+1) gamma tau_dm), the
    log of the objective breaks the tie, so the search still walks
    towards the maximum instead of the interval's far edge.
    """
    gamma = rates.gamma_down_eff

    def objective(t: float) -> float:
        if t <= tau_dm:
            return 0.0
        duty = math.sqrt(t / (t + tau_overhead)) if tau_overhead > 0 else 1.0
        return math.exp(-0.5 * (m + 1) * gamma * t) * (1.0 - tau_dm / t) * duty

    def log_objective(t: float) -> float:
        return (-0.5 * (m + 1) * gamma * t + math.log(1.0 - tau_dm / t)
                + 0.5 * math.log(t / (t + tau_overhead)))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = (1.0 + 1e-9) * tau_dm, 100.0 * tau_dm
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(200):
        if b - a < 1e-6 * tau_dm:
            break
        if fc > fd or (fc == fd == 0.0 and log_objective(c) > log_objective(d)):
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    return float(0.5 * (a + b))


# ---------------------------------------------------------------------------
# In-situ background calibration (spectator counting)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    """Measured deposition rates after a background run plus inverse gate."""

    primary_rate: float          # P(primary at m+1) / ((m+1) tau)
    spectator_rates: tuple       # P(cavity i occupied) / tau, i >= 1
    mean_spectator_rate: float
    bar_gamma_up_expected: float


def spectator_calibration(
    n_cavities: int,
    m: int,
    noise: NoiseModel,
    tau: float,
) -> CalibrationResult:
    """Compare the signal-cavity background rate against the spectator average.

    Runs a drive-free simulation from the distributed |m> state, undoes the
    distribution, and counts: the primary (m+1)-photon rate normalised by its
    bosonic enhancement, and the per-spectator occupation rate.  With
    heating-only noise the two agree (a unitarity sum rule); dephasing with
    m >= 1 swaps primary photons onto the spectators and breaks the equality
    with a spectator excess.  The binary plan distributes the state, the
    cutoff is max(m + 3, 3) and the step tau / 400.
    """
    space = HilbertSpace(n_cavities, max(m + 3, 3))
    plan = make_plan("binary", n_cavities)
    res = propagate_cycle(space, m, noise, 0.0, tau, tau, "background", ed=plan, dt=tau / 400.0)
    rho = apply_plan_rho(res.final_state, plan, space, inverse=True)
    diag = np.diag(rho).real
    occ = occupations(space)
    primary_mask = (occ[:, 0] == m + 1) & (occ[:, 1:] == 0).all(axis=1)
    primary_rate = float(diag[primary_mask].sum()) / ((m + 1) * tau)
    spect = tuple(
        float(diag[occ[:, i] >= 1].sum()) / tau for i in range(1, n_cavities)
    )
    return CalibrationResult(
        primary_rate=primary_rate,
        spectator_rates=spect,
        mean_spectator_rate=float(np.mean(spect)) if spect else math.nan,
        bar_gamma_up_expected=_mean_pair_rates(noise)[0],
    )


# ---------------------------------------------------------------------------
# Scan-rate grid (simulated enhancement table)
# ---------------------------------------------------------------------------

@dataclass
class ScanGridRow:
    n_cavities: int
    fock_m: int
    snr_max: float
    tau_opt: float
    snr_max_ideal: float
    eta: float
    rate_norm_ideal: float   # N^2 (m+1) / reference
    rate_norm_sim: float     # scan-rate formula with measured eta, / reference
    snr_ratio_sq: float      # (snr_max / snr_max(ref))^2, the raw SNR route
    backend: str


def scan_rate_grid(
    base: ProtocolConfig,
    n_list,
    m_list,
    tau_grid_units: tuple[float, float, int] = TAU_GRID_TAUDM,
    jobs: int = 1,
) -> list[ScanGridRow]:
    """Simulated and ideal peak SNR over an (N, m) grid, normalised to (N=1, m=0).

    eta is each configuration's simulated peak SNR relative to its own
    lossless reference.  The normalised scan rate follows the projection
    formula, rate = eta^2 N^2 (m+1) x (common factors), so

        rate_norm_sim = N^2 (m+1) (eta / eta_ref)^2 / (N_ref^2 (m_ref+1));

    the raw squared SNR ratio is reported alongside (the two differ only by
    the finite-displacement nonlinearity of the ideal reference runs).
    """
    tasks = [(n, m) for n in n_list for m in m_list]
    ref_key = (min(n_list), min(m_list))
    args = [(base, n, m, tau_grid_units) for n, m in tasks]
    results = pool_map(_scan_point, args, jobs)
    by_key = {(n, m): res for (n, m), res in zip(tasks, results)}
    ref = by_key[ref_key]
    eta_ref = ref[0] / ref[2] if ref[2] > 0 else math.nan
    ideal_ref = ref_key[0] ** 2 * (ref_key[1] + 1)
    rows = []
    for (n, m) in tasks:
        snr_max, tau_opt, snr_ideal, backend = by_key[(n, m)]
        eta = snr_max / snr_ideal if snr_ideal > 0 else math.nan
        rows.append(ScanGridRow(
            n_cavities=n, fock_m=m,
            snr_max=snr_max, tau_opt=tau_opt, snr_max_ideal=snr_ideal,
            eta=eta,
            rate_norm_ideal=(n ** 2 * (m + 1)) / ideal_ref,
            rate_norm_sim=(n ** 2 * (m + 1)) * (eta / eta_ref) ** 2 / ideal_ref,
            snr_ratio_sq=(snr_max / ref[0]) ** 2 if ref[0] > 0 else math.nan,
            backend=backend,
        ))
    return rows


def _scan_point(base: ProtocolConfig, n: int, m: int, grid_units):
    lo, hi, pts = grid_units
    cfg = replace(base, n_cavities=n, fock_m=m, cutoff=None, noise=None)
    grid = default_tau_grid(cfg.tau_dm, lo, hi, pts)
    sim = snr_sweep(cfg, grid)
    ideal = snr_sweep(ideal_reference(cfg), grid)
    return sim.snr_max, sim.tau_opt, ideal.snr_max, sim.backend
