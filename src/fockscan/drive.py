"""Dark-photon drive physics: coupling, geometry, and stochastic buildup.

A dark-photon background field acts on a frequency-matched cavity as a weak
classical drive whose phase wanders on the coherence time tau_dm.  On
resonance the ensemble-averaged displacement after an integration time t is

    <|alpha|>(t) = sqrt(2 g^2 tau_dm [t - tau_dm (1 - exp(-t/tau_dm))]),

ballistic (g t) for t << tau_dm and diffusive (g sqrt(2 tau_dm t)) for
t >> tau_dm.  With detuning delta the mean photon number picks up decaying
oscillatory terms; mc_population cross-checks that closed form against a
direct Monte Carlo integration of the phase-noisy equation of motion.

All frequencies and rates in this package are angular (rad/s).  The CLI and
config layer accept Hz fields and convert once, at the boundary.  The SI
constants are fixed module values (HBAR, K_B, C_LIGHT, JOULE_PER_GEV), not
parameters.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InvalidArgument
from .parallel import pool_map

_BESSEL_J0_ROOT = 2.4048  # first zero of J0, fixed to the 5 digits used throughout


# SI constants (CODATA/SI-exact values)
HBAR = 1.054571817e-34          # J s
K_B = 1.380649e-23              # J/K (exact)
C_LIGHT = 2.99792458e8          # m/s (exact)
JOULE_PER_GEV = 1.602176634e-10  # J/GeV (exact)


def rho_dm_si(rho_gev_cm3: float) -> float:
    """Convert an energy density in GeV/cm^3 to J/m^3."""
    return rho_gev_cm3 * JOULE_PER_GEV * 1e6


@dataclass(frozen=True)
class DMParams:
    """Dark-photon dark-matter parameters.

    epsilon   -- kinetic mixing (dimensionless)
    rho_dm    -- local energy density, J/m^3
    omega_dm  -- dark-photon angular frequency, rad/s
    q_dm      -- coherence quality factor (tau_dm = q_dm / omega_dm)
    """

    epsilon: float
    rho_dm: float
    omega_dm: float
    q_dm: float = 1e6

    def __post_init__(self):
        for name in ("epsilon", "rho_dm", "omega_dm", "q_dm"):
            if getattr(self, name) < 0 or (name != "epsilon" and getattr(self, name) == 0):
                raise InvalidArgument(f"{name} must be positive")

    @property
    def tau_dm(self) -> float:
        return self.q_dm / self.omega_dm


@dataclass(frozen=True)
class CavityGeometry:
    omega: float          # rad/s
    volume: float         # m^3
    form_factor_g: float  # dimensionless, in (0, 1]

    def __post_init__(self):
        if self.omega <= 0 or self.volume <= 0:
            raise InvalidArgument("omega and volume must be positive")
        if not 0 < self.form_factor_g <= 1:
            raise InvalidArgument("form factor must lie in (0, 1]")


def coupling_g(dm: DMParams, cav: CavityGeometry) -> float:
    """DM-cavity coupling g = epsilon sqrt(2 G rho V omega / hbar), in rad/s."""
    return _coupling(dm.epsilon, cav.form_factor_g, dm.rho_dm, cav.volume, cav.omega)


def _coupling(epsilon, form_factor_g, rho_dm, volume, omega):
    """`coupling_g` from plain numbers; elementwise over arrays of volume and omega."""
    sqrt = np.sqrt if isinstance(omega, np.ndarray) else math.sqrt
    return epsilon * sqrt(2.0 * form_factor_g * rho_dm * volume * omega / HBAR)


def _pow(x, p):
    """x ** p, elementwise on an array, always through Python's float power.

    numpy's vectorised power is not libm's pow on every CPU (SIMD loops
    differ from it in the last bit on a few percent of inputs), so an array
    goes through the same scalar operation a float does and its results do
    not depend on the machine.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(operator.pow, x.tolist(), repeat(p)), float, count=x.size)
    return x ** p


def form_factor_tm010() -> float:
    """Polarisation-averaged overlap of the TM010 cylinder mode, (1/3)(2/j01)^2."""
    return (1.0 / 3.0) * (2.0 / _BESSEL_J0_ROOT) ** 2


def cavity_volume_tm010(omega):
    """Volume of the height = 4a TM010 cylinder resonant at omega: 4 pi (j01 c)^3 / omega^3.

    Elementwise over an array of omega.
    """
    if np.any(np.less_equal(omega, 0)):
        raise InvalidArgument("omega must be positive")
    return 4.0 * math.pi * (_BESSEL_J0_ROOT * C_LIGHT) ** 3 / _pow(omega, 3)


def mean_displacement(g: float, tau_dm: float, tau_int) -> np.ndarray | float:
    """Ensemble-averaged displacement amplitude at resonance (dimensionless)."""
    t = np.asarray(tau_int, dtype=float)
    val = np.sqrt(2.0 * g * g * tau_dm * (t - tau_dm * (-np.expm1(-t / tau_dm))))
    return float(val) if np.isscalar(tau_int) else val


def mean_population_detuned(g: float, tau_dm: float, delta: float, t) -> np.ndarray | float:
    """Closed-form mean photon number under a detuned phase-noisy drive.

    With a = 1/tau_dm:

        <n(t)> = 2 g^2 / (a^2 + d^2) * [ a t
                 + e^{-a t} ((a^2 - d^2) cos(d t) - 2 a d sin(d t)) / (a^2 + d^2)
                 - (a^2 - d^2) / (a^2 + d^2) ].
    """
    tt = np.asarray(t, dtype=float)
    a = 1.0 / tau_dm
    d = delta
    s2 = a * a + d * d
    osc = np.exp(-a * tt) * ((a * a - d * d) * np.cos(d * tt) - 2.0 * a * d * np.sin(d * tt))
    val = (2.0 * g * g / s2) * (a * tt + osc / s2 - (a * a - d * d) / s2)
    return float(val) if np.isscalar(t) else val


@dataclass(frozen=True)
class McResult:
    """Ensemble-averaged Monte Carlo population with its standard error."""

    t_grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_traj: int
    seed: int


def mc_population(
    g: float,
    tau_dm: float,
    delta: float,
    t_grid,
    n_traj: int,
    seed: int,
    n_jobs: int = 1,
    _chunk: int = 512,
) -> McResult:
    """Monte Carlo mean photon number from the phase-noisy equation of motion.

    Each trajectory integrates da/dt = -i g e^{i(delta t + phi(t))} exactly,
    piece by piece, where phi(t) is piecewise constant, uniform on [0, 2 pi),
    and is resampled at renewal times whose spacings are exponential with
    mean tau_dm.  That renewal process reproduces the exponential phase
    correlation e^{-|t-t'|/tau_dm} assumed by the closed form (a fixed
    resampling interval would undercount the diffusive growth by 2x).

    Results are reproducible from (seed, trajectory index) alone: each
    trajectory draws from its own substream, so neither chunking nor worker
    scheduling changes the output.
    """
    t = np.asarray(t_grid, dtype=float)
    if n_traj < 1:
        raise InvalidArgument("n_traj must be >= 1")
    if t.ndim != 1 or t.size == 0 or np.any(np.diff(t) <= 0) or t[0] < 0:
        raise InvalidArgument("t_grid must be non-empty and strictly increasing")

    chunks = [(start, min(start + _chunk, n_traj)) for start in range(0, n_traj, _chunk)]
    args = [(g, tau_dm, delta, t, lo, hi, seed) for lo, hi in chunks]
    blocks = pool_map(_mc_chunk, args, n_jobs)

    samples = np.concatenate(blocks, axis=0)  # (n_traj, n_grid), index order fixed
    mean = samples.mean(axis=0)
    if n_traj > 1:
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(n_traj)
    else:
        stderr = np.zeros_like(mean)
    return McResult(t_grid=t, mean=mean, stderr=stderr, n_traj=n_traj, seed=seed)


# Trajectories are integrated together up to this many (point, piece start)
# entries, so each complex temporary stays under 128 KiB, the size from which
# glibc's malloc maps fresh pages for every array: unbounded batches of equal
# piece counts page-faulted about 125 000 times in one cold 10^4-trajectory
# run and gave back most of their gain.
_BATCH_ELEMENTS = 8192


def _mc_chunk(g, tau_dm, delta, t_grid, lo, hi, seed):
    """|alpha(t)|^2 for trajectories lo..hi-1, one rng substream per trajectory.

    Trajectory k draws from default_rng([seed, k]) alone and in a fixed
    order: a block of exponential gaps, further blocks while their sum falls
    short of t_max, then one uniform phase per renewal piece.  Everything
    else runs over the whole chunk: the first blocks are cumulated as one
    array, and trajectories with equal piece counts are integrated in
    batches, as (trajectories, points, pieces) arrays of at most
    _BATCH_ELEMENTS entries.  Each trajectory's row is bit for bit what it
    would be on its own.
    """
    t_max = float(t_grid[-1])
    rngs = [np.random.default_rng([seed, traj]) for traj in range(lo, hi)]
    expect = t_max / tau_dm
    block = int(expect + 10.0 * math.sqrt(expect + 1.0) + 10)
    gaps = np.stack([rng.exponential(tau_dm, size=block) for rng in rngs])
    starts = np.zeros((len(rngs), block + 1))
    np.cumsum(gaps, axis=1, out=starts[:, 1:])
    # starts ascend, so counting those below t_max is searchsorted(starts, t_max)
    keep = np.count_nonzero(starts < t_max, axis=1) + 1
    longer = {}
    for row in np.flatnonzero(gaps.sum(axis=1) < t_max):
        longer[row] = _longer_starts(rngs[row], tau_dm, t_max, gaps[row], block)
        keep[row] = longer[row].size
    phases = [rng.uniform(0.0, 2.0 * math.pi, size=k - 1) for rng, k in zip(rngs, keep)]
    out = np.empty((len(rngs), t_grid.size))
    for k in np.unique(keep):
        same = np.flatnonzero(keep == k)
        step = max(1, _BATCH_ELEMENTS // (t_grid.size * k))
        for first in range(0, same.size, step):
            rows = same[first:first + step]
            out[rows] = _piecewise_population(
                g, delta, t_grid,
                np.stack([longer[r] if r in longer else starts[r, :k] for r in rows]),
                np.stack([phases[r] for r in rows]),
            )
    return out


def _longer_starts(rng, tau_dm, t_max, gaps, block):
    """Piece starts covering [0, t_max] when the first block of gaps falls short of it."""
    total = gaps.sum()
    while total < t_max:
        gaps = np.concatenate([gaps, rng.exponential(tau_dm, size=block)])
        total = gaps.sum()
    starts = np.concatenate([[0.0], np.cumsum(gaps)])
    return starts[:int(np.searchsorted(starts, t_max)) + 1]


def _piecewise_population(g, delta, t_grid, starts, phases):
    """|alpha(t)|^2 on the grid, each phase piece integrated in closed form.

    starts (..., pieces + 1) and phases (..., pieces) give one trajectory
    per leading index; the result is (..., points).  All grid points are
    clipped against all pieces at once, as a (..., points, pieces) array,
    and every amplitude is bit for bit the one a loop over the grid gives:

    - the phase factors are repeated to the segments' shape, so the complex
      product runs numpy's contiguous loop, as each 1-D product of the loop
      did (with one operand broadcast, numpy may pick a loop whose complex
      product rounds differently, e.g. without FMA);
    - each row sums in the same pairwise order as a 1-D sum of that row;
    - |amp|^2 is libm's hypot of the parts, squared through `_pow`: that is
      what the scalar abs(amp) ** 2 computes, while numpy's vectorised
      complex abs, and hypot * hypot, differ from it in the last bit on
      some points, on some CPUs.

    A subnormal detuning counts as zero: e^{i delta t} is 1 + i delta t to
    double precision, and dividing by delta would overflow to inf * 0 = nan.
    """
    t = t_grid[:, None]
    hi = np.minimum(starts[..., None, 1:], t)
    lo = np.minimum(starts[..., None, :-1], t)
    if abs(delta) < np.finfo(float).tiny:
        segs = (hi - lo).astype(complex)
    else:
        segs = (np.exp(1j * delta * hi) - np.exp(1j * delta * lo)) / (1j * delta)
    phase_fac = np.exp(1j * phases)[..., None, :].repeat(t_grid.size, axis=-2)
    amp = -1j * g * (phase_fac * segs).sum(axis=-1)
    return _pow(np.hypot(amp.real, amp.imag).ravel(), 2).reshape(amp.shape)
