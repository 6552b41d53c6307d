import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.constants as const
from hypothesis import given, settings
from hypothesis import strategies as st

from fockscan import sensitivity
from fockscan.drive import (
    _BESSEL_J0_ROOT,
    C_LIGHT,
    HBAR,
    K_B,
    CavityGeometry,
    cavity_volume_tm010,
    form_factor_tm010,
    rho_dm_si,
)
from fockscan.errors import BudgetTooSmall, InvalidArgument
from fockscan.sensitivity import (
    ReachBand,
    SensitivityParams,
    exclusion_epsilon,
    reach_band,
    scan_rate,
    thermal_occupation,
)

OMEGA7 = 2 * math.pi * 7e9


def make_params(**kw):
    base = dict(
        rho_dm=rho_dm_si(0.45), q_cav=1e8, n_cavities=4, fock_m=5,
        temp_cavity=0.05, target_epsilon=1e-16, q_dm=1e6, zeta_snr=1.62, eta=1.0,
    )
    base.update(kw)
    return SensitivityParams(**base)


def geometry_at(omega):
    return CavityGeometry(omega=omega, volume=cavity_volume_tm010(omega),
                          form_factor_g=form_factor_tm010())


class TestThermalOccupation:
    def test_underflow_safe_at_low_temperature(self):
        assert thermal_occupation(OMEGA7, 1e-6) == 0.0

    def test_unit_occupation_identity(self):
        # hbar w = k T ln 2  ->  n_th = 1
        temp = 0.05
        omega = math.log(2) * const.k * temp / const.hbar
        assert thermal_occupation(omega, temp) == pytest.approx(1.0, rel=1e-9)

    def test_seven_ghz_fifty_mk(self):
        # independent evaluation with scipy.constants
        x = const.hbar * OMEGA7 / (const.k * 0.05)
        oracle = 1.0 / math.expm1(x)
        val = thermal_occupation(OMEGA7, 0.05)
        # scipy derives hbar from h, so the two constant sets differ in the
        # last digit; the exponential amplifies that to a few 1e-9
        assert val == pytest.approx(oracle, rel=1e-7)
        assert val == pytest.approx(1.21e-3, rel=1e-2)

    def test_monotonicity(self):
        temps = [0.02, 0.05, 0.1, 0.3]
        vals = [thermal_occupation(OMEGA7, t) for t in temps]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        omegas = [OMEGA7, 1.2 * OMEGA7, 2 * OMEGA7]
        vals = [thermal_occupation(w, 0.05) for w in omegas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            thermal_occupation(OMEGA7, 0.0)

    def test_hot_end_is_outside_the_model(self):
        # below the smallest normal float, hbar w / k T makes 1/expm1 lose its precision,
        # overflow to inf (here) or divide by zero; either path names the first such omega
        hot = r"cavity temperature 1e\+300 K is too hot at 0\.159155 Hz: hbar w / k T = 7\.638e-312"
        with pytest.raises(InvalidArgument, match=hot):
            thermal_occupation(1.0, 1e300)
        with pytest.raises(InvalidArgument, match=hot):
            thermal_occupation(np.array([1e20, 1.0, 2.0]), 1e300)
        # a normal hbar w / k T is still in the model
        x = HBAR * 1.0 / (K_B * 1e290)
        assert x > 1e-302 and thermal_occupation(1.0, 1e290) == 1.0 / math.expm1(x)

    def test_array_path_matches_scalar_bit_for_bit(self):
        # at T = 1 K, x = hbar w / k; each edge of x is bracketed by omegas a few ulps apart,
        # which hit x = 40 and its two float neighbours, where the branch switches
        edges = np.array([40.0, 700.0, 710.0, 1e-300]) * K_B / HBAR
        near = (edges[:, None] + np.arange(-4, 5) * np.spacing(edges)[:, None]).ravel()
        drawn = np.random.default_rng(7).uniform(1e-6, 60.0, 20_000) * K_B / HBAR
        omegas = np.r_[near, drawn]
        x = HBAR * omegas / K_B
        assert {40.0, np.nextafter(40.0, 0.0), np.nextafter(40.0, 41.0)} <= set(x.tolist())
        expected = np.array([sensitivity._bose(v) for v in x.tolist()])
        assert np.array_equal(thermal_occupation(omegas, 1.0), expected)


class TestScanRate:
    def test_ideal_config_ratio_384(self):
        geo = geometry_at(OMEGA7)
        hi = scan_rate(make_params(n_cavities=8, fock_m=5), geo)
        lo = scan_rate(make_params(n_cavities=1, fock_m=0), geo)
        assert hi.rate / lo.rate == pytest.approx(384.0, rel=1e-12)

    def test_quartic_epsilon_scaling(self):
        geo = geometry_at(OMEGA7)
        r1 = scan_rate(make_params(target_epsilon=1e-16), geo)
        r2 = scan_rate(make_params(target_epsilon=2e-16), geo)
        assert r2.rate / r1.rate == pytest.approx(16.0, rel=1e-12)

    def test_exposure_and_rate_consistent(self):
        geo = geometry_at(OMEGA7)
        res = scan_rate(make_params(), geo)
        assert res.rate == pytest.approx((geo.omega / 1e6) / res.tau_tot_step, rel=1e-12)
        assert res.rate_hz_per_s == pytest.approx(res.rate / (2 * math.pi), rel=1e-15)

    def test_eta_quadratic(self):
        geo = geometry_at(OMEGA7)
        full = scan_rate(make_params(eta=1.0), geo)
        half = scan_rate(make_params(eta=0.5), geo)
        assert half.rate / full.rate == pytest.approx(0.25, rel=1e-12)


class TestExclusion:
    def test_exposure_quartic_root(self):
        params = make_params()
        e1 = exclusion_epsilon(OMEGA7, params, 10.0)
        e2 = exclusion_epsilon(OMEGA7, params, 160.0)
        assert e1 / e2 == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_with_scan_rate(self):
        # exposure returned by scan_rate reproduces the target mixing
        params = make_params()
        geo = geometry_at(OMEGA7)
        tau_tot = scan_rate(params, geo).tau_tot_step
        eps = exclusion_epsilon(OMEGA7, params, tau_tot)
        assert eps == pytest.approx(params.target_epsilon, rel=1e-10, abs=0)

    def test_shape_fit_and_temperature_ordering(self):
        freqs = np.linspace(3e9, 12e9, 30)
        curves = {}
        for temp in (0.025, 0.05, 0.075):
            params = make_params(temp_cavity=temp)
            eps = np.array([
                exclusion_epsilon(2 * math.pi * f, params, 10.0) for f in freqs
            ])
            curves[temp] = eps
            x = np.log([
                thermal_occupation(2 * math.pi * f, temp) * (2 * math.pi * f) ** 7
                for f in freqs
            ])
            slope = np.polyfit(x, np.log(eps), 1)[0]
            assert abs(slope / 0.25 - 1.0) < 0.05
        # colder cavities exclude deeper at every frequency
        assert np.all(curves[0.025] < curves[0.05])
        assert np.all(curves[0.05] < curves[0.075])

    def test_fit_coefficient_with_measured_efficiency(self):
        # measure eta for the four-cavity |5> configuration with 99%
        # splitters and 20 us SPAM, then compare the fitted prefactor of
        # eps = C (n_th w^7)^(1/4) against 0.61e-34 (mixed angular units)
        from fockscan.protocol import ProtocolConfig, default_tau_grid, ideal_reference, snr_sweep

        cfg = ProtocolConfig(
            n_cavities=4, fock_m=5, omega=OMEGA7, temp_cavity=0.05, q_cavity=1e8,
            tau_tot=10.0, tau_spam=20e-6, ed_scheme="binary", bs_fidelity=0.99,
            epsilon=1e-16, backend="effective",
        )
        grid = default_tau_grid(cfg.tau_dm, 0.2, 40.0, 50)
        eta = snr_sweep(cfg, grid).snr_max / snr_sweep(ideal_reference(cfg), grid).snr_max
        params = make_params(eta=eta, q_cav=1e8)
        freqs = np.linspace(3e9, 12e9, 25)
        eps = np.array([exclusion_epsilon(2 * math.pi * f, params, 10.0) for f in freqs])
        x = np.log([
            thermal_occupation(2 * math.pi * f, 0.05) * (2 * math.pi * f) ** 7
            for f in freqs
        ])
        slope, intercept = np.polyfit(x, np.log(eps), 1)
        coeff = math.exp(intercept)
        assert abs(slope / 0.25 - 1) < 1e-6
        assert coeff == pytest.approx(0.61e-34, rel=0.15, abs=0)


class TestReachBand:
    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmall):
            reach_band(1e-6, make_params(), OMEGA7)
        with pytest.raises(BudgetTooSmall):
            reach_band(-1.0, make_params(), OMEGA7)

    def test_band_structure(self):
        band = reach_band(30.0, make_params(), OMEGA7)
        assert isinstance(band, ReachBand)
        assert band.omega_end > band.omega_start
        assert band.total_time <= 30.0
        assert band.n_steps == len(band.steps)
        cums = [c for (_, _, c) in band.steps]
        assert all(a < b for a, b in zip(cums, cums[1:]))

    def test_width_monotone_in_enhancement(self):
        # larger N^2 (m+1) never narrows the band
        widths = []
        for n, m in [(1, 0), (2, 1), (4, 5)]:
            band = reach_band(3600.0, make_params(n_cavities=n, fock_m=m), OMEGA7)
            widths.append(band.freq_end_hz - band.freq_start_hz)
        assert widths[0] < widths[1] < widths[2]

    def test_fifteen_hour_ordering(self):
        bands = {}
        for n, m in [(1, 0), (2, 1), (4, 5)]:
            bands[(n, m)] = reach_band(
                15 * 3600.0, make_params(n_cavities=n, fock_m=m),
                2 * math.pi * 5e9,
            )
        w10 = bands[(1, 0)].freq_end_hz - bands[(1, 0)].freq_start_hz
        w21 = bands[(2, 1)].freq_end_hz - bands[(2, 1)].freq_start_hz
        w45 = bands[(4, 5)].freq_end_hz - bands[(4, 5)].freq_start_hz
        assert w10 < w21 < w45


def loop_reach(target_epsilon, time_budget, params, omega_start, max_steps=2_000_000):
    """The per-step loop `reach_band` replaced: one `scan_rate` call per tuning step."""
    if time_budget <= 0:
        raise BudgetTooSmall("time budget must be positive")
    work = dataclasses.replace(params, target_epsilon=target_epsilon)
    g_form = form_factor_tm010()
    omega, spent, steps, tau_tot = omega_start, 0.0, [], math.inf
    for _ in range(max_steps):
        geometry = CavityGeometry(omega=omega, volume=cavity_volume_tm010(omega),
                                  form_factor_g=g_form)
        tau_tot = scan_rate(work, geometry).tau_tot_step
        if spent + tau_tot > time_budget:
            break
        spent += tau_tot
        steps.append((omega, tau_tot, spent))
        omega = omega * (1.0 + 1.0 / params.q_dm)
    if not steps:
        raise BudgetTooSmall(
            f"budget {time_budget:g} s cannot afford one step (first step needs {tau_tot:g} s)"
        )
    return np.array(steps), spent, steps[-1][0]


def closed_form_epsilon(omega, params, tau_tot):
    """The closed form `exclusion_epsilon` replaced: eps^4 in SI units, then its fourth root.

    eps(w) = [ n_th zeta^2 w hbar^2 /
               (16 eta^2 G^2 rho^2 Q_dm^2 Q_cav V(w)^2 tau_tot (m+1) N^2) ]^(1/4)
    """
    volume = cavity_volume_tm010(omega)
    eps4 = (
        thermal_occupation(omega, params.temp_cavity) * params.zeta_snr ** 2 * omega * HBAR ** 2
        / (16.0 * params.eta ** 2 * form_factor_tm010() ** 2 * params.rho_dm ** 2
           * params.q_dm ** 2 * params.q_cav * volume ** 2 * tau_tot
           * (params.fock_m + 1) * params.n_cavities ** 2)
    )
    return eps4 ** 0.25


def mpmath_epsilon(omega, params, tau_tot):
    """The same closed form evaluated at 50 digits from the same float inputs and constants."""
    with mpmath.workdps(50):
        w, hbar, j01 = mpmath.mpf(omega), mpmath.mpf(HBAR), mpmath.mpf(_BESSEL_J0_ROOT)
        n_th = 1 / mpmath.expm1(hbar * w / (mpmath.mpf(K_B) * mpmath.mpf(params.temp_cavity)))
        volume = 4 * mpmath.pi * (j01 * mpmath.mpf(C_LIGHT)) ** 3 / w ** 3
        g_form = (2 / j01) ** 2 / 3
        eps4 = (
            n_th * mpmath.mpf(params.zeta_snr) ** 2 * w * hbar ** 2
            / (16 * mpmath.mpf(params.eta) ** 2 * g_form ** 2 * mpmath.mpf(params.rho_dm) ** 2
               * mpmath.mpf(params.q_dm) ** 2 * mpmath.mpf(params.q_cav) * volume ** 2
               * mpmath.mpf(tau_tot) * (params.fock_m + 1) * params.n_cavities ** 2)
        )
        return float(mpmath.root(eps4, 4))


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError, BudgetTooSmall) as exc:
        return exc


def assert_same_band(args, kwargs=None):
    kwargs = kwargs or {}
    expected = outcome(loop_reach, *args, **kwargs)
    target_epsilon, time_budget, params, omega_start = args
    params = dataclasses.replace(params, target_epsilon=target_epsilon)
    got = outcome(reach_band, time_budget, params, omega_start, **kwargs)
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return expected
    steps, total, omega_end = expected
    assert not isinstance(got, Exception), got
    assert np.array_equal(got.steps, steps)
    assert got.n_steps == len(steps)
    assert got.total_time == total and got.omega_end == omega_end
    return got


class TestReachBandChunked:
    """`reach_band` evaluates steps in chunks; it must equal the per-step loop bit for bit."""

    def test_steps_array(self):
        band = reach_band(30.0, make_params(), OMEGA7)
        assert band.steps.shape == (band.n_steps, 3) and band.steps.dtype == np.float64
        assert not band.steps.flags.writeable
        assert band.steps[0, 0] == OMEGA7 and band.steps[-1, 0] == band.omega_end
        assert band.steps[-1, 2] == band.total_time
        assert not band.exposures.flags.writeable and band.exposures.shape == (band.n_steps,)
        assert np.array_equal(band.strided(7), band.steps[::7])

    def test_long_band_matches_loop(self):
        # about 3 700 steps of 7.5 s: the first step, chunks of 1024 and 2048, part of one of 4096
        band = assert_same_band((1e-16, 28000.0, make_params(n_cavities=1, fock_m=0),
                                 2 * math.pi * 5e9))
        assert band.n_steps > 1 + 1024 + 2048

    @settings(max_examples=80, deadline=None)
    @given(
        temp=st.floats(-4.5, 0.0).map(lambda e: 10.0 ** e),
        q_dm=st.floats(0.0, 7.0).map(lambda e: 10.0 ** e),
        freq=st.floats(9.0, 10.5).map(lambda e: 10.0 ** e),
        factor=st.floats(-3.0, 3.7).map(lambda e: 10.0 ** e),
        n_m=st.sampled_from([(1, 0), (2, 1), (4, 5)]),
        max_steps=st.sampled_from([37, 1000, None]),
    )
    def test_matches_per_step_loop(self, temp, q_dm, freq, factor, n_m, max_steps):
        # temperatures from 30 uK to 1 K reach both branches of thermal_occupation and the
        # underflow of n_th to 0 (hbar w / k T > 745), at the first step or inside the band;
        # factor < 1 makes the budget too small for the first step
        params = make_params(temp_cavity=temp, q_dm=q_dm, n_cavities=n_m[0], fock_m=n_m[1])
        omega = 2 * math.pi * freq
        first = outcome(scan_rate, params, geometry_at(omega))
        budget = factor * first.tau_tot_step if not isinstance(first, Exception) else 1.0
        kwargs = {} if max_steps is None else {"max_steps": max_steps}
        assert_same_band((1e-16, budget, params, omega), kwargs)

    def test_failure_past_the_band_end_raises_nothing(self):
        # hbar w / k T rises from 700 by 0.1% a step, so n_th drops below the smallest
        # normal float (hbar w / k T > 708.4) 12 steps in, inside the first chunk, and
        # the loop rejects the cold step there
        omega = 2 * math.pi * 5e9
        temp = const.hbar * omega / (const.k * 700.0)
        params = make_params(temp_cavity=temp, q_dm=1e3)
        tau0 = scan_rate(params, geometry_at(omega)).tau_tot_step
        cold = r"cavity temperature .* K is too cold at .* Hz: hbar w / k T = 708\.4"
        with pytest.raises(InvalidArgument, match=cold):
            reach_band(1e6 * tau0, params, omega)
        # the loop raises the same class and message
        assert isinstance(assert_same_band((1e-16, 1e6 * tau0, params, omega)), InvalidArgument)
        band = assert_same_band((1e-16, 1.2 * tau0, params, omega))
        assert 1 <= band.n_steps < 12

    def test_huge_occupation_falls_back_to_the_loop(self):
        # at 1e300 K (1e308 K) hbar w / k T at 1 rad/s is subnormal, where 1/expm1 overflows
        # to inf: thermal_occupation rejects it in the chunk, so reach_band would replay it,
        # and the band raises what the loop raises (here at the first step)
        for temp in (1e300, 1e308):
            params = make_params(temp_cavity=temp)
            omegas = np.cumprod(np.full(16, 1.0 + 1e-6))
            assert sensitivity._chunk_exposures(params, omegas, form_factor_tm010()) is None
            assert isinstance(assert_same_band((1e-16, 30.0, params, 1.0)), Exception)

    def test_hot_cavity_is_outside_the_model(self):
        # at 1e297 K and 5 GHz hbar w / k T is normal, but the exposure is so long that
        # the rate underflows (the loop failed its unit audit, 0 against 8e-297)
        hot = r"1e\+297 K is too hot at 5e\+09 Hz: hbar w / k T = 2\.4e-298 .* outside the model"
        omega = 2 * math.pi * 5e9
        params = make_params(temp_cavity=1e297, n_cavities=1, fock_m=0)
        with pytest.raises(InvalidArgument, match=hot):
            scan_rate(params, geometry_at(omega))
        with pytest.raises(InvalidArgument, match=hot):
            exclusion_epsilon(omega, params, 10.0)
        with pytest.raises(InvalidArgument, match=hot):
            reach_band(1800.0, params, omega)
        assert isinstance(assert_same_band((1e-16, 1800.0, params, omega)), InvalidArgument)
        # the first numpy multiply of the exposure overflows here, and is named too
        with np.errstate(over="raise"), pytest.raises(InvalidArgument, match=hot):
            exclusion_epsilon(np.float64(omega), params, 10.0)

    def test_strided_across_block_boundaries(self):
        # the 15-hour band runs through chunks of 1, 1024, 2048, 4096 and then 8192 steps;
        # the reference builds each column over one array of all exposures
        band = reach_band(15 * 3600.0, make_params(), 2 * math.pi * 5e9)
        sizes = [block.size for block in band.blocks]
        assert sizes[:5] == [1, 1024, 2048, 4096, 8192] and sum(sizes) == band.n_steps
        omegas = np.full(band.n_steps, 1.0 + 1.0 / band.q_dm)
        omegas[0] = band.omega_start
        np.multiply.accumulate(omegas, out=omegas)
        table = np.stack([omegas, band.exposures, np.add.accumulate(band.exposures)], axis=1)
        n = band.n_steps
        for stride in (1, 7, 8192, 8193, n, n + 5):
            assert np.array_equal(band.strided(stride), table[::stride])
        assert table[-1, 0] == band.omega_end and table[-1, 2] == band.total_time

    def test_memory_is_one_float_per_step(self):
        # the 15-hour band from 5 GHz at N=4, m=5 (about 500 000 steps) holds its exposures
        # once, as chunk blocks (8 B a step), besides one chunk's working set: its
        # frequencies and the temporaries of its exposures.  Joining the blocks would take
        # another 8 B a step, and the three-column table 24 B
        params, omega = make_params(), 2 * math.pi * 5e9
        tracemalloc.start()
        try:
            chunk = omega * np.cumprod(np.full(sensitivity._MAX_CHUNK, 1.0 + 1e-6))
            sensitivity._chunk_exposures(params, chunk, form_factor_tm010())
            working_set = tracemalloc.get_traced_memory()[1]
            del chunk
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            band = reach_band(15 * 3600.0, params, omega)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert band.n_steps > 100_000
        assert peak < 8 * band.n_steps + working_set

    def test_audit_runs(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "_AUDIT_RTOL", -1.0)
        with pytest.raises(ArithmeticError, match="unit audit failed"):
            reach_band(30.0, make_params(), OMEGA7)
        # the chunked steps are audited too: a chunk that fails it is replayed
        omegas = OMEGA7 * np.cumprod(np.full(16, 1.0 + 1e-6))
        assert sensitivity._chunk_exposures(make_params(), omegas, form_factor_tm010()) is None

    def test_overflow_raises_in_scalar_and_chunk_paths(self):
        # powers are products, which overflow to inf where Python's x ** p raised
        # OverflowError; a float still raises it, an array flags numpy's overflow
        ok, big = 1e102, 1e103  # omega^3 overflows from about 5.6e102
        assert cavity_volume_tm010(np.array([ok]))[0] == cavity_volume_tm010(ok)
        with pytest.raises(OverflowError):
            cavity_volume_tm010(big)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            cavity_volume_tm010(np.array([ok, big]))
        # epsilon = 1e80 puts g near 9e97 at 7 GHz, so g^4 overflows
        params = make_params(target_epsilon=1e80)
        with pytest.raises(OverflowError):
            scan_rate(params, geometry_at(OMEGA7))
        assert sensitivity._chunk_exposures(params, np.full(4, OMEGA7), form_factor_tm010()) is None
        assert isinstance(assert_same_band((1e80, 30.0, make_params(), OMEGA7)), OverflowError)


class TestExclusionOracles:
    """`exclusion_epsilon` inverts `_exposure`; it must match the closed form it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        temp=st.floats(-2.0, 0.0).map(lambda e: 10.0 ** e),
        freq=st.floats(9.0, math.log10(30e9)).map(lambda e: 10.0 ** e),
        n_m=st.tuples(st.integers(1, 16), st.integers(0, 10)),
        q_cav=st.floats(4.0, 10.0).map(lambda e: 10.0 ** e),
        q_dm=st.floats(5.0, 7.0).map(lambda e: 10.0 ** e),
        eta=st.floats(0.1, 1.0),
        zeta=st.floats(0.5, 5.0),
        target=st.floats(-18.0, -12.0).map(lambda e: 10.0 ** e),
        tau_tot=st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e),
    )
    def test_matches_closed_form(self, temp, freq, n_m, q_cav, q_dm, eta, zeta, target, tau_tot):
        params = make_params(temp_cavity=temp, n_cavities=n_m[0], fock_m=n_m[1], q_cav=q_cav,
                             q_dm=q_dm, eta=eta, zeta_snr=zeta, target_epsilon=target)
        omega = 2 * math.pi * freq
        eps = exclusion_epsilon(omega, params, tau_tot)
        assert eps == pytest.approx(closed_form_epsilon(omega, params, tau_tot), rel=1e-12, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(600.0, 700.0), freq=st.floats(4e9, 12e9))
    def test_accurate_where_the_closed_form_underflows(self, x, freq):
        # eps^4 lies below the normal float range here, so the closed form returns 0
        # or the root of a subnormal, while the exposure stays a normal float
        omega = 2 * math.pi * freq
        params = make_params(temp_cavity=HBAR * omega / (K_B * x))
        eps = exclusion_epsilon(omega, params, 10.0)
        assert eps == pytest.approx(mpmath_epsilon(omega, params, 10.0), rel=1e-12, abs=0)

    def test_closed_form_underflows_to_zero(self):
        omega = 2 * math.pi * 5e9
        params = make_params(temp_cavity=HBAR * omega / (K_B * 650.0))
        assert closed_form_epsilon(omega, params, 10.0) == 0.0
        assert exclusion_epsilon(omega, params, 10.0) == pytest.approx(
            mpmath_epsilon(omega, params, 10.0), rel=1e-12, abs=0)

    def test_audit_runs(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "_AUDIT_RTOL", -1.0)
        with pytest.raises(ArithmeticError, match="unit audit failed"):
            exclusion_epsilon(OMEGA7, make_params(), 10.0)
