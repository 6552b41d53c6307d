import math

import numpy as np
import pytest
import scipy.constants as const
from hypothesis import given, settings
from hypothesis import strategies as st

from fockscan import drive
from fockscan.drive import (
    CavityGeometry,
    _piecewise_population,
    DMParams,
    cavity_volume_tm010,
    coupling_g,
    form_factor_tm010,
    mc_population,
    mean_displacement,
    mean_population_detuned,
    rho_dm_si,
)
from fockscan.errors import InvalidArgument

TAU = 1.0  # work in units of the coherence time where convenient


class TestCoupling:
    def geometry(self, volume=55.5e-6):
        return CavityGeometry(omega=2 * math.pi * 7e9, volume=volume,
                              form_factor_g=0.231)

    def test_zero_mixing_gives_zero(self):
        dm = DMParams(epsilon=0.0, rho_dm=rho_dm_si(0.45), omega_dm=2 * math.pi * 7e9)
        assert coupling_g(dm, self.geometry()) == 0.0

    def test_linear_in_epsilon_and_sqrt_volume(self):
        dm1 = DMParams(epsilon=1e-16, rho_dm=rho_dm_si(0.45), omega_dm=2 * math.pi * 7e9)
        dm2 = DMParams(epsilon=2e-16, rho_dm=rho_dm_si(0.45), omega_dm=2 * math.pi * 7e9)
        g1 = coupling_g(dm1, self.geometry())
        assert coupling_g(dm2, self.geometry()) == pytest.approx(2 * g1, rel=1e-12)
        assert coupling_g(dm1, self.geometry(2 * 55.5e-6)) == pytest.approx(
            math.sqrt(2) * g1, rel=1e-12
        )

    def test_si_value_against_independent_constants(self):
        # independent oracle: same formula evaluated with scipy.constants
        dm = DMParams(epsilon=1e-16, rho_dm=rho_dm_si(0.45), omega_dm=2 * math.pi * 7e9)
        g = coupling_g(dm, self.geometry())
        rho = 0.45 * const.giga * const.electron_volt / const.centi ** 3
        oracle = 1e-16 * math.sqrt(2 * 0.231 * rho * 55.5e-6 * 2 * math.pi * 7e9 / const.hbar)
        assert g == pytest.approx(oracle, rel=1e-9)
        assert g == pytest.approx(8.8e1, rel=5e-3)

    def test_tau_dm_definition(self):
        dm = DMParams(epsilon=1e-16, rho_dm=1.0, omega_dm=2 * math.pi * 7e9, q_dm=1e6)
        assert dm.tau_dm == pytest.approx(1e6 / (2 * math.pi * 7e9), rel=1e-15)


class TestGeometry:
    def test_form_factor_value(self):
        g = form_factor_tm010()
        assert round(g, 3) == 0.231
        assert g == pytest.approx((1 / 3) * (2 / 2.4048) ** 2, rel=1e-15)
        # without polarisation averaging the overlap is three times larger
        assert 3 * g == pytest.approx((2 / 2.4048) ** 2, rel=1e-15)

    def test_volume_at_seven_ghz(self):
        v = cavity_volume_tm010(2 * math.pi * 7e9)
        assert v * 1e6 == pytest.approx(55.4, rel=5e-3)

    def test_cubic_law(self):
        omega = 2 * math.pi * 5e9
        assert cavity_volume_tm010(omega / 2) == pytest.approx(
            8 * cavity_volume_tm010(omega), rel=1e-12
        )

    def test_radius_identity(self):
        omega = 2 * math.pi * 9e9
        a = 2.4048 * const.c / omega
        assert cavity_volume_tm010(omega) == pytest.approx(4 * math.pi * a ** 3, rel=1e-9)


class TestMeanDisplacement:
    def test_ballistic_limit(self):
        g = 3.0
        t = TAU / 100
        assert mean_displacement(g, TAU, t) == pytest.approx(g * t, rel=1e-2)

    def test_diffusive_limit(self):
        g = 3.0
        t = 100 * TAU
        assert mean_displacement(g, TAU, t) == pytest.approx(
            g * math.sqrt(2 * TAU * t), rel=1e-2
        )

    def test_zero_coupling(self):
        assert mean_displacement(0.0, TAU, 5.0) == 0.0


class TestDetunedPopulation:
    def test_resonant_reduction(self):
        g = 1.7
        ts = np.linspace(0.1, 30, 40)
        resonant = 2 * g * g * TAU * (ts - TAU * (1 - np.exp(-ts / TAU)))
        assert np.allclose(mean_population_detuned(g, TAU, 0.0, ts), resonant, rtol=1e-12)

    def test_short_time_quadratic(self):
        g = 2.0
        t = TAU / 1000
        for delta in (0.0, 0.5, 2.0):
            val = mean_population_detuned(g, TAU, delta, t)
            assert val == pytest.approx(g * g * t * t, rel=5e-3)

    def test_monotone_in_time_within_linewidth(self):
        ts = np.linspace(0.05, 20, 400)
        for delta in (0.0, 0.5, 1.0):
            n = mean_population_detuned(1.0, TAU, delta, ts)
            assert np.all(np.diff(n) >= -1e-14)

    def test_detuning_suppression(self):
        for t in (0.5, 2.0, 8.0, 20.0):
            vals = [mean_population_detuned(1.0, TAU, d, t) for d in (0.0, 0.3, 0.6, 1.0)]
            assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_quadratic_coupling_scaling(self):
        base = mean_population_detuned(1.0, TAU, 0.7, 3.0)
        assert mean_population_detuned(3.0, TAU, 0.7, 3.0) == pytest.approx(9 * base, rel=1e-14)


class TestMonteCarlo:
    grid = np.linspace(0.5, 20.0, 20)

    def test_zero_coupling(self):
        res = mc_population(0.0, TAU, 0.0, self.grid, 50, seed=1)
        assert np.all(res.mean == 0.0)

    def test_determinism(self):
        a = mc_population(1.0, TAU, 0.0, self.grid, 300, seed=11)
        b = mc_population(1.0, TAU, 0.0, self.grid, 300, seed=11)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_parallel_matches_serial(self):
        a = mc_population(1.0, TAU, 0.5, self.grid, 600, seed=3, n_jobs=1, _chunk=128)
        b = mc_population(1.0, TAU, 0.5, self.grid, 600, seed=3, n_jobs=3, _chunk=128)
        assert np.array_equal(a.mean, b.mean)

    @pytest.mark.parametrize("delta", [0.0, 2.0])
    def test_agreement_with_closed_form(self, delta):
        res = mc_population(1.0, TAU, delta, self.grid, 3000, seed=5)
        analytic = mean_population_detuned(1.0, TAU, delta, self.grid)
        z = np.abs(res.mean - analytic) / res.stderr
        assert z.max() < 3.0

    def test_quadratic_coupling_scaling_exact(self):
        # |alpha|^2 is exactly quadratic in g, trajectory by trajectory
        a = mc_population(1.0, TAU, 0.7, self.grid, 200, seed=4)
        b = mc_population(2.0, TAU, 0.7, self.grid, 200, seed=4)
        assert np.array_equal(b.mean, 4.0 * a.mean)

    def test_variance_shrinks_as_one_over_n(self):
        # log-log slope of the standard error vs trajectory count: -1/2 +- 20%
        sizes = [250, 1000, 4000]
        errs = [
            float(mc_population(1.0, TAU, 0.0, np.array([10.0]), n, seed=9).stderr[0])
            for n in sizes
        ]
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_input_validation(self):
        with pytest.raises(InvalidArgument):
            mc_population(1.0, TAU, 0.0, self.grid, 0, seed=1)
        with pytest.raises(InvalidArgument):
            mc_population(1.0, TAU, 0.0, np.array([2.0, 1.0]), 10, seed=1)


def loop_population(g, delta, t_grid, starts, phases):
    """`_piecewise_population` as a loop over the grid points, one 1-D sum per point."""
    phase_fac = np.exp(1j * phases)
    out = np.empty(t_grid.size)
    for j, t in enumerate(t_grid):
        hi = np.minimum(starts[1:], t)
        lo = np.minimum(starts[:-1], t)
        if abs(delta) < np.finfo(float).tiny:
            segs = (hi - lo).astype(complex)
        else:
            segs = (np.exp(1j * delta * hi) - np.exp(1j * delta * lo)) / (1j * delta)
        amp = -1j * g * np.sum(phase_fac * segs)
        out[j] = abs(amp) ** 2
    return out


def loop_mc_samples(g, tau_dm, delta, t_grid, n_traj, seed, make_rng=np.random.default_rng):
    """Monte Carlo samples trajectory by trajectory: renewal pieces, then `loop_population`."""
    t_max = float(t_grid[-1])
    expect = t_max / tau_dm
    block = int(expect + 10.0 * math.sqrt(expect + 1.0) + 10)
    rows = []
    for traj in range(n_traj):
        rng = make_rng([seed, traj])
        gaps = rng.exponential(tau_dm, size=block)
        while gaps.sum() < t_max:
            gaps = np.concatenate([gaps, rng.exponential(tau_dm, size=block)])
        starts = np.concatenate([[0.0], np.cumsum(gaps)])
        starts = starts[:int(np.searchsorted(starts, t_max)) + 1]
        phases = rng.uniform(0.0, 2.0 * math.pi, size=starts.size - 1)
        rows.append(loop_population(g, delta, t_grid, starts, phases))
    return np.array(rows)


class ShortFirstBlock:
    """An odd trajectory's generator whose first exponential block is shrunk to fall short."""

    def __init__(self, seed, make_rng):
        self._rng = make_rng(seed)
        self._shrink = seed[1] % 2 == 1

    def exponential(self, scale, size):
        gaps = self._rng.exponential(scale, size)
        if self._shrink:
            self._shrink = False
            return gaps * 1e-2
        return gaps

    def uniform(self, low, high, size):
        return self._rng.uniform(low, high, size)


class TestChunkedMonteCarlo:
    grid = np.linspace(0.25, 12.0, 17)

    def assert_matches_loop(self, delta, seed, make_rng=np.random.default_rng):
        samples = loop_mc_samples(73.6, TAU, delta, self.grid, 300, seed, make_rng)
        res = mc_population(73.6, TAU, delta, self.grid, 300, seed, _chunk=128)
        assert np.array_equal(res.mean, samples.mean(axis=0))
        assert np.array_equal(res.stderr, samples.std(axis=0, ddof=1) / math.sqrt(300))

    @pytest.mark.parametrize("delta", [0.0, 5e-324, -2.225073858507203e-309, 0.7, -2.0, 13.0])
    def test_matches_per_trajectory_loop(self, delta):
        self.assert_matches_loop(delta, seed=7)

    def test_small_batches_match_loop(self, monkeypatch):
        monkeypatch.setattr(drive, "_BATCH_ELEMENTS", 500)
        self.assert_matches_loop(-0.3, seed=9)

    def test_grid_ending_at_zero_has_no_pieces(self):
        res = mc_population(73.6, TAU, 0.0, [0.0], 20, seed=7)
        assert np.array_equal(res.mean, [0.0])

    def test_short_first_block_draws_more(self, monkeypatch):
        real = np.random.default_rng

        def short(seed):
            return ShortFirstBlock(seed, real)

        monkeypatch.setattr(np.random, "default_rng", short)
        self.assert_matches_loop(0.4, seed=8, make_rng=short)


class TestPiecewisePopulation:
    @settings(max_examples=80, deadline=None)
    @given(
        g=st.floats(1e-3, 1e3),
        delta=st.one_of(st.just(0.0), st.floats(-50.0, 50.0).filter(lambda d: d != 0.0)),
        n_pieces=st.integers(1, 300),
        n_points=st.integers(1, 60),
        reach=st.floats(0.5, 2.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_per_point_loop(self, g, delta, n_pieces, n_points, reach, seed):
        # reach > 1 puts grid points past the start of the last renewal
        rng = np.random.default_rng(seed)
        starts = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0, n_pieces))])
        phases = rng.uniform(0.0, 2.0 * math.pi, n_pieces)
        t_grid = np.unique(rng.uniform(0.0, reach * starts[-1], n_points))
        got = _piecewise_population(g, delta, t_grid, starts, phases)
        assert np.array_equal(got, loop_population(g, delta, t_grid, starts, phases))

    @pytest.mark.parametrize("delta", [5e-324, -2.225073858507203e-309])
    def test_subnormal_detuning_is_resonant(self, delta):
        rng = np.random.default_rng(3)
        starts = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0, 20))])
        phases = rng.uniform(0.0, 2.0 * math.pi, 20)
        t_grid = np.linspace(0.0, 1.5 * starts[-1], 40)
        got = _piecewise_population(1.0, delta, t_grid, starts, phases)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, _piecewise_population(1.0, 0.0, t_grid, starts, phases))
