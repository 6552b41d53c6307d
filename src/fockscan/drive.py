"""Dark-photon drive physics: coupling, geometry, and stochastic buildup.

A dark-photon background field acts on a frequency-matched cavity as a weak
classical drive whose phase wanders on the coherence time tau_dm.  On
resonance the ensemble-averaged displacement after an integration time t is

    <|alpha|>(t) = sqrt(2 g^2 tau_dm [t - tau_dm (1 - exp(-t/tau_dm))]),

ballistic (g t) for t << tau_dm and diffusive (g sqrt(2 tau_dm t)) for
t >> tau_dm.  With detuning delta the mean photon number picks up decaying
oscillatory terms; mc_population cross-checks that closed form against a
direct Monte Carlo integration of the phase-noisy equation of motion.  Its
trajectory k draws from the stream of np.random.default_rng([seed, k]);
the streams are seeded a chunk of trajectories at a time, and each
trajectory's phase pieces are summed as prefix sums.

Powers of values that vary per element (omega^3, g^4, ...) are written as
products: those are correctly rounded, so an array and a float give the
same bits on every CPU (see _overflow_checked).

All frequencies and rates in this package are angular (rad/s).  The CLI and
config layer accept Hz fields and convert once, at the boundary.  The SI
constants are fixed module values (HBAR, K_B, C_LIGHT, JOULE_PER_GEV), not
parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCeilingExceeded, InvalidArgument
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


def _overflow_checked(power, base):
    """power, a product of base with itself, raising OverflowError if a float overflowed.

    Powers are written as products (x*x, x*x*x, (x*x)*(x*x)): IEEE products
    are correctly rounded, so numpy's array products give every CPU the
    floats that Python's give.  Python's x ** p raises OverflowError where
    the product silently gives inf, so a float is checked here; an array is
    left to numpy's floating-point error state.
    """
    if not isinstance(power, np.ndarray) and math.isinf(power) and math.isfinite(base):
        raise OverflowError(f"power of {base!r} overflows")
    return power


def form_factor_tm010() -> float:
    """Polarisation-averaged overlap of the TM010 cylinder mode, (1/3)(2/j01)^2."""
    return (1.0 / 3.0) * (2.0 / _BESSEL_J0_ROOT) ** 2


def cavity_volume_tm010(omega):
    """Volume of the height = 4a TM010 cylinder resonant at omega: 4 pi (j01 c)^3 / omega^3.

    Elementwise over an array of omega.
    """
    if np.any(np.less_equal(omega, 0)):
        raise InvalidArgument("omega must be positive")
    omega3 = _overflow_checked(omega * omega * omega, omega)
    return 4.0 * math.pi * (_BESSEL_J0_ROOT * C_LIGHT) ** 3 / omega3


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


# mc_population refuses a run whose estimated peak (`_mc_bytes`: the
# samples plus one chunk's working set) exceeds MC_MAX_BYTES, the full
# backend's FULL_BACKEND_MAX_BYTES (protocol imports this module, so the
# ceiling is stated here).  One chunk's working set per trajectory is
# MC_PIECE_BYTES per renewal piece (gaps, phases and starts, the piece
# index, and the complex phase factors, edges, increments and their prefix
# sums) plus MC_POINT_BYTES per grid point (the complex amplitude and its
# temporaries): tracemalloc put one _mc_chunk call at 108 and 66 bytes at
# most, from 1 to 512 trajectories, 75 to 21 424 pieces and 50 to 5000
# points.  Over `mc-dm` runs estimated at 10 MiB to 1 GiB, the process
# peaked at most 36 MiB (its start-up footprint) above the estimate, so a
# run at the ceiling stays near 2 GiB; with 50 points that is about 5
# million trajectories, a minute's work.  The sample configs estimate
# 6.8 MiB at most.
MC_MAX_BYTES = 2 * 1024 ** 3
MC_PIECE_BYTES = 112
MC_POINT_BYTES = 72
# trajectories per chunk: 10^4 trajectories at 50 points took 0.10 s at
# 256 and 512 (0.11 s at 128), and the process peaked 2.5 MiB lower at 256
MC_CHUNK = 256


def mc_population(
    g: float,
    tau_dm: float,
    delta: float,
    t_grid,
    n_traj: int,
    seed: int,
    n_jobs: int = 1,
    _chunk: int = MC_CHUNK,
) -> McResult:
    """Monte Carlo mean photon number from the phase-noisy equation of motion.

    Each trajectory integrates da/dt = -i g e^{i(delta t + phi(t))} exactly,
    piece by piece, where phi(t) is piecewise constant, uniform on [0, 2 pi),
    and is resampled at renewal times whose spacings are exponential with
    mean tau_dm.  That renewal process reproduces the exponential phase
    correlation e^{-|t-t'|/tau_dm} assumed by the closed form (a fixed
    resampling interval would undercount the diffusive growth by 2x).

    Results are reproducible from (seed, trajectory index) alone:
    trajectory k draws from the stream of np.random.default_rng([seed, k]),
    so neither chunking nor worker scheduling changes the output.  The
    streams are seeded for a chunk of trajectories at once, and each
    trajectory's pieces are summed as prefix sums, so a trajectory costs
    O(points + pieces) array work and no Python work per element.

    The samples live in one (n_traj, points) array, filled a chunk at a
    time as `pool_map` yields each chunk, and the standard error is taken
    in place on it by the ufunc calls of ndarray.std(ddof=1) (subtract the
    mean, square, sum over trajectories, divide by n_traj - 1, sqrt), so
    it is bit for bit samples.std(axis=0, ddof=1) / sqrt(n_traj) with one
    such array alive instead of three.  Before anything is allocated,
    `require_mc_fits` estimates that array plus one chunk's working set,
    and raises DimensionCeilingExceeded if that exceeds MC_MAX_BYTES.
    """
    t = np.asarray(t_grid, dtype=float)
    if n_traj < 1:
        raise InvalidArgument("n_traj must be >= 1")
    if seed < 0:
        raise InvalidArgument("seed must be >= 0")
    if t.ndim != 1 or t.size == 0 or np.any(np.diff(t) <= 0) or t[0] < 0:
        raise InvalidArgument("t_grid must be non-empty and strictly increasing")
    require_mc_fits(n_traj, t.size, float(t[-1]) / tau_dm, _chunk)

    args = [(g, tau_dm, delta, t, lo, min(lo + _chunk, n_traj), seed)
            for lo in range(0, n_traj, _chunk)]
    samples = np.empty((n_traj, t.size))  # row k is trajectory k
    row = 0
    for block in pool_map(_mc_chunk, args, n_jobs):
        samples[row:row + len(block)] = block
        row += len(block)
        del block  # freed before the next chunk is computed
    mean = samples.mean(axis=0)
    if n_traj > 1:
        np.subtract(samples, mean, out=samples)
        np.multiply(samples, samples, out=samples)
        stderr = np.sqrt(np.add.reduce(samples, axis=0) / (n_traj - 1)) / math.sqrt(n_traj)
    else:
        stderr = np.zeros_like(mean)
    return McResult(t_grid=t, mean=mean, stderr=stderr, n_traj=n_traj, seed=seed)


def require_mc_fits(n_traj: int, points: int, t_max_taudm: float, chunk: int = MC_CHUNK) -> None:
    """Raise DimensionCeilingExceeded if mc_population's estimated peak exceeds MC_MAX_BYTES.

    Depends on the run's size alone, so a caller can check before it builds
    the grid.
    """
    need = _mc_bytes(n_traj, points, min(chunk, n_traj), t_max_taudm)
    if need > MC_MAX_BYTES:
        raise DimensionCeilingExceeded(
            f"the Monte Carlo run ({n_traj} trajectories, {points} points, "
            f"t_max / tau_dm = {t_max_taudm:.4g}) would need about "
            f"{need / 2 ** 30:.3g} GiB, over its {MC_MAX_BYTES / 2 ** 30:g} GiB limit"
        )


def _mc_bytes(n_traj: int, points: int, chunk: int, expect: float) -> float:
    """Estimated peak bytes of mc_population: the samples plus one chunk's working set.

    expect is t_max / tau_dm, the renewals a trajectory expects; a float
    estimate, so that an absurd request gives a large number, not an error.
    """
    pieces = expect + 10.0 * math.sqrt(expect + 1.0) + 11.0  # _gap_block's gaps, plus one start
    return 8.0 * n_traj * points + chunk * (MC_PIECE_BYTES * pieces + MC_POINT_BYTES * points)


# numpy's SeedSequence: uint32 hash constants and pool size
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_U32 = 0xFFFFFFFF
_U128 = (1 << 128) - 1


def _gap_block(expect: float) -> int:
    """Exponential gaps a trajectory draws per block, given t_max / tau_dm renewals expected."""
    return int(expect + 10.0 * math.sqrt(expect + 1.0) + 10)


def _mc_chunk(g, tau_dm, delta, t_grid, lo, hi, seed):
    """|alpha(t)|^2 for trajectories lo..hi-1, one rng substream per trajectory.

    Trajectory k draws from the stream of default_rng([seed, k]) alone and
    in a fixed order: a block of exponential gaps, further blocks while
    their sum falls short of t_max, then one uniform phase per renewal
    piece.  The streams' PCG64 states are computed for the whole chunk at
    once (`_pcg64_states`), and one generator is set to each in turn to
    fill that trajectory's rows; exponential(tau_dm) and uniform(0, 2 pi)
    are tau_dm and 2 pi times the standard draws, so scaling afterwards
    gives the same floats.  A row draws a full block of phases, and only
    those up to the piece that holds t_max are read.  A trajectory whose
    first block falls short redraws its sequence from its own state.  Each
    row is bit for bit what the trajectory gives on its own.
    """
    t_max = float(t_grid[-1])
    block = _gap_block(t_max / tau_dm)
    states = _pcg64_states(seed, lo, hi)
    gen = np.random.Generator(np.random.PCG64(0))
    gaps = np.empty((hi - lo, block))
    phases = np.empty((hi - lo, block))
    for state, gap_row, phase_row in zip(states, gaps, phases):
        gen.bit_generator.state = state
        gen.standard_exponential(out=gap_row)
        gen.random(out=phase_row)
    gaps *= tau_dm
    phases *= 2.0 * math.pi
    starts = np.zeros((hi - lo, block + 1))
    np.cumsum(gaps, axis=1, out=starts[:, 1:])
    # pieces past the one that holds t_max are never read
    used = min(block, max(1, int(np.count_nonzero(starts < t_max, axis=1).max())))
    out = _piecewise_population(g, delta, t_grid, starts[:, :used + 1], phases[:, :used])
    for row in np.flatnonzero(gaps.sum(axis=1) < t_max):
        gen.bit_generator.state = states[row]
        out[row] = _piecewise_population(
            g, delta, t_grid, *_longer_pieces(gen, tau_dm, t_max, block))[0]
    return out


def _pcg64_states(seed, lo, hi):
    """The bit-generator state of default_rng([seed, k]) for k = lo..hi-1.

    SeedSequence's hash mixing runs on arrays, one entry per trajectory: its
    entropy is the uint32 words of seed, then those of k (one word below
    2^32, two from there), mixed into a pool of 4 words, from which 8 words
    make PCG64's (initstate, initseq).  PCG64 then seeds its 128-bit LCG:
    inc = 2 initseq + 1, state = ((inc + initstate) M + inc) mod 2^128.
    """
    seed_words = _uint32_words(seed)
    states = []
    for first, stop in ((lo, min(hi, 1 << 32)), (max(lo, 1 << 32), hi)):
        if first >= stop:
            continue
        k = np.arange(first, stop, dtype=np.uint64)
        entropy = [np.full(k.size, w, dtype=np.uint32) for w in seed_words]
        entropy.append((k & np.uint64(_U32)).astype(np.uint32))
        if first >= 1 << 32:
            entropy.append((k >> np.uint64(32)).astype(np.uint32))
        words = np.stack(_seed_sequence_state(entropy, k.size), axis=1).astype(np.uint64)
        seeds = words[:, 0::2] | (words[:, 1::2] << np.uint64(32))
        for s_hi, s_lo, i_hi, i_lo in seeds.tolist():
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _U128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _U128
            states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0})
    return states


def _uint32_words(x: int) -> list[int]:
    """x as little-endian uint32 words, as SeedSequence splits an int (0 is one word)."""
    words = [x & _U32]
    while x >> 32:
        x >>= 32
        words.append(x & _U32)
    return words


def _seed_sequence_state(entropy, n):
    """SeedSequence(entropy).generate_state(4, uint64) as 8 uint32 arrays of length n.

    entropy is a list of uint32 arrays, word i of every sequence in
    entropy[i].  The hash constants do not depend on the data, so they are
    Python ints, and numpy's uint32 arithmetic wraps as the C code does.
    """
    const = _SS_INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _SS_MULT_A & _U32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_SS_POOL, len(entropy)):
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    const = _SS_INIT_B
    out = []
    for i in range(8):
        value = pool[i % _SS_POOL] ^ np.uint32(const)
        const = const * _SS_MULT_B & _U32
        value = value * np.uint32(const)
        out.append(value ^ (value >> np.uint32(16)))
    return out


def _longer_pieces(gen, tau_dm, t_max, block):
    """(starts, phases), one row each, of a trajectory whose first block of gaps falls short of t_max.

    gen stands at the start of the trajectory's stream; it draws blocks of
    gaps until their sum reaches t_max, then one phase per gap.
    """
    gaps = tau_dm * gen.standard_exponential(block)
    while gaps.sum() < t_max:
        gaps = np.concatenate([gaps, tau_dm * gen.standard_exponential(block)])
    starts = np.concatenate([[0.0], np.cumsum(gaps)])
    phases = 2.0 * math.pi * gen.random(gaps.size)
    return starts[None], phases[None]


def _piecewise_population(g, delta, t_grid, starts, phases):
    """|alpha(t)|^2 on the grid, each phase piece integrated in closed form.

    One trajectory per row: starts (n, pieces + 1), from 0 and ascending,
    and phases (n, pieces); the result is (n, points).  Piece j contributes
    e^{i phi_j} seg_j(t), seg_j(t) the integral of e^{i delta u} from s_j
    to min(t, s_{j+1}).  The terms of the full pieces are cumulated in
    piece order, C_p = sum_{j<p}, so a point t in piece p reads
    C_p + e^{i phi_p} seg_p(t): a row costs O(points + pieces).  A point
    past the last piece's end sees every piece in full.  The population is
    g^2 (re^2 + im^2) of that sum.

    A subnormal detuning counts as zero: e^{i delta t} is 1 + i delta t to
    double precision, and dividing by delta would overflow to inf * 0 = nan.
    """
    n, pieces = phases.shape
    rows = np.arange(n)[:, None]
    # piece of each point: the inner starts s_1..s_{pieces-1} at or below it
    first_point = np.searchsorted(t_grid, starts[:, 1:-1], side="left")
    first_point += (t_grid.size + 1) * rows
    hist = np.bincount(first_point.ravel(), minlength=n * (t_grid.size + 1))
    piece = np.cumsum(hist.reshape(n, -1)[:, :-1], axis=1)
    past = t_grid > starts[:, -1:]
    phase_fac = np.exp(1j * phases)
    if abs(delta) < np.finfo(float).tiny:
        full = np.diff(starts, axis=1)
        part = np.where(past, starts[:, -1:], t_grid) - starts[rows, piece]
    else:
        edge = np.exp(1j * delta * starts)
        full = np.diff(edge, axis=1) / (1j * delta)
        part = (np.where(past, edge[:, -1:], np.exp(1j * delta * t_grid))
                - edge[rows, piece]) / (1j * delta)
    cum = np.zeros((n, pieces), dtype=complex)
    np.cumsum(phase_fac[:, :-1] * full[:, :-1], axis=1, out=cum[:, 1:])
    amp = cum[rows, piece] + phase_fac[rows, piece] * part
    return (g * g) * (amp.real * amp.real + amp.imag * amp.imag)
