import math
import tracemalloc

import numpy as np
import pytest

from analytic_model import (
    semiclassical_rates,
    semiclassical_rates_approx,
    spam_background,
    tau_analytic,
)
from fockscan import lindblad, protocol
from fockscan.errors import DimensionCeilingExceeded, InvalidArgument
from fockscan.fock import HilbertSpace
from fockscan.gates import make_plan
from fockscan.lindblad import NoiseModel, propagate_cycle, transformed_rates
from fockscan.protocol import (
    FULL_BACKEND_MAX_BYTES,
    CalibrationResult,
    ProtocolConfig,
    default_tau_grid,
    full_backend_bytes,
    ideal_reference,
    optimal_tau_int,
    snr_from_counts,
    snr_sweep,
    simulate_populations,
    spectator_calibration,
)

OMEGA = 2 * math.pi * 7e9


def canonical_config(**kw):
    """Two 7 GHz cavities at 50 mK, 2.27 ms decay, fixed 73.6 rad/s coupling."""
    base = dict(
        n_cavities=2, fock_m=0, omega=OMEGA, temp_cavity=0.05,
        q_cavity=2.27e-3 * OMEGA, coupling_override=73.6,
        tau_tot=1.0, tau_spam=0.0, ed_scheme="binary",
    )
    base.update(kw)
    return ProtocolConfig(**base)


def one_cycle(cfg, tau_int):
    """(n_s, n_b, SNR) of one simulated cycle at tau_int."""
    times, n_s, n_b, _ = simulate_populations(cfg, [tau_int])
    ns, nb = float(n_s[-1]), float(n_b[-1])
    return ns, nb, snr_from_counts(ns, nb, cfg.tau_cycle(float(times[-1])), cfg.tau_tot)


class TestConfig:
    def test_noise_derivation_detailed_balance(self):
        cfg = canonical_config()
        nm = cfg.noise_model()
        gamma_down = OMEGA / cfg.q_cavity
        assert nm.gamma_down[0] == pytest.approx(gamma_down, rel=1e-12)
        assert nm.gamma_phi[0] == pytest.approx(gamma_down / 10, rel=1e-12)
        # heating consistent with a ~1.9 s equilibration time at 50 mK
        assert 1.0 / nm.gamma_up[0] == pytest.approx(1.88, rel=2e-2)

    def test_backend_selection(self):
        assert canonical_config().chosen_backend() == "full"
        assert canonical_config(n_cavities=8).chosen_backend() == "effective"
        # 9^3 = 729 still fits the full model; 17^3 = 4913 does not
        assert canonical_config(n_cavities=3, fock_m=5).chosen_backend() == "full"
        assert canonical_config(n_cavities=3, cutoff=17).chosen_backend() == "effective"
        assert canonical_config(backend="effective").chosen_backend() == "effective"

    def test_tau_cycle_assembly(self):
        cfg = canonical_config(tau_spam=2e-5)
        assert cfg.tau_cycle(1e-4) == pytest.approx(1e-4 + 2 * cfg.tau_ed() + 2e-5)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            canonical_config(n_cavities=0)
        with pytest.raises(InvalidArgument):
            canonical_config(backend="magic")


class TestFullBackendMemory:
    def test_auto_picks_effective_over_the_estimate(self):
        for n in range(1, 5):
            for cutoff in range(2, 41):
                cfg = canonical_config(n_cavities=n, cutoff=cutoff, ed_scheme="linear")
                fits = n <= 3 and full_backend_bytes(n, cutoff) <= FULL_BACKEND_MAX_BYTES
                assert cfg.chosen_backend() == ("full" if fits else "effective")
        # the cutoff^4 channel matrices decide N=2 at cutoff 36 (dim 1296)
        # and N=3 at cutoff 16 (dim 4096)
        assert canonical_config(cutoff=35).chosen_backend() == "full"
        assert canonical_config(cutoff=36).chosen_backend() == "effective"
        assert canonical_config(n_cavities=3, cutoff=16,
                                ed_scheme="linear").chosen_backend() == "effective"

    def test_forced_full_over_the_estimate_is_refused(self):
        cfg = canonical_config(cutoff=36, backend="full")
        with pytest.raises(DimensionCeilingExceeded, match="dimension 1296"):
            simulate_populations(cfg, [cfg.tau_dm])

    @pytest.mark.parametrize("n,cutoff", [(2, 12), (2, 16), (3, 7)])
    @pytest.mark.parametrize("f_bs", [1.0, 0.99])
    def test_peak_within_the_estimate(self, n, cutoff, f_bs):
        # the estimate with the factors this run cached in place of the
        # cache's capacity, which a run from an empty cache does not fill
        cfg = canonical_config(n_cavities=n, cutoff=cutoff, bs_fidelity=f_bs, backend="full",
                               ed_scheme="linear" if n == 3 else "binary")
        if f_bs < 1:  # the calibration runs at cutoff 3, outside the estimate
            lindblad.calibrate_bs_multiplier(f_bs, cfg.g_bs,
                                             *lindblad._mean_pair_rates(cfg.noise_model()))
        lindblad._factor.cache_clear()
        tracemalloc.start()
        try:
            simulate_populations(cfg, np.array([0.2, 1.0]) * cfg.tau_dm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= full_backend_bytes(n, cutoff, lindblad._factor.cache_info().currsize)


class TestSnrFromCounts:
    def test_equal_counts(self):
        # n_s = n_b: SNR = sqrt(n_s tau_tot / tau_cycle)
        assert snr_from_counts(4e-4, 4e-4, 1e-4, 2.0) == pytest.approx(
            math.sqrt(4e-4 * 2.0 / 1e-4)
        )

    def test_quadrupled_background_halves_snr(self):
        base = snr_from_counts(1e-4, 1e-4, 1e-4, 1.0)
        assert snr_from_counts(1e-4, 4e-4, 1e-4, 1.0) == pytest.approx(base / 2)

    def test_homogeneity_in_tau_tot(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ns, nb, tc, tt = rng.uniform(1e-6, 1e-2, 4)
            assert snr_from_counts(ns, nb, tc, 4 * tt) == pytest.approx(
                2 * snr_from_counts(ns, nb, tc, tt), rel=1e-12
            )
            assert snr_from_counts(ns, 4 * nb, tc, tt) == pytest.approx(
                0.5 * snr_from_counts(ns, nb, tc, tt), rel=1e-12
            )
            # invariant under (n_s, n_b, tau_cycle) -> (l n_s, l n_b, l tau_cycle)
            lam = rng.uniform(0.1, 10.0)
            assert snr_from_counts(lam * ns, lam * nb, lam * tc, tt) == pytest.approx(
                snr_from_counts(ns, nb, tc, tt), rel=1e-12
            )

    def test_zero_background_sentinel(self):
        assert snr_from_counts(1e-5, 0.0, 1e-4, 1.0) == math.inf
        assert snr_from_counts(0.0, 0.0, 1e-4, 1.0) == 0.0
        # a rounding residue below zero reads as an empty count
        assert snr_from_counts(-5.4e-16, 1e-5, 1e-4, 1.0) == 0.0

    def test_invalid(self):
        with pytest.raises(InvalidArgument):
            snr_from_counts(-1e-5, 1e-5, 1e-4, 1.0)
        with pytest.raises(InvalidArgument):
            snr_from_counts(1e-5, -2 * protocol.POPULATION_FLOOR, 1e-4, 1.0)


class TestRunCycle:
    def test_zero_coupling_zero_snr(self):
        cfg = canonical_config(coupling_override=0.0)
        n_s, _, snr = one_cycle(cfg, 5 * cfg.tau_dm)
        assert n_s == pytest.approx(0.0, abs=1e-15)
        assert snr == 0.0

    def test_snr_scales_as_sqrt_tau_tot(self):
        tau = canonical_config().tau_dm
        a = one_cycle(canonical_config(tau_tot=1.0), 5 * tau)[2]
        b = one_cycle(canonical_config(tau_tot=2.0), 5 * tau)[2]
        assert b / a == pytest.approx(math.sqrt(2), rel=1e-6)

    def test_probabilities_in_range(self):
        cfg = canonical_config(fock_m=2)
        n_s, n_b, snr = one_cycle(cfg, 5 * cfg.tau_dm)
        assert 0 <= n_s <= 1 and 0 <= n_b <= 1
        assert snr > 0


class TestOneRoadToTheEngine:
    ROAD = ("propagate_cycle", "effective_propagate_cycle", "lossy_ed_apply",
            "effective_lossy_window")

    @pytest.mark.parametrize("kw,calls", [
        (dict(n_cavities=2, backend="full"), dict(propagate_cycle=2, lossy_ed_apply=4)),
        # two binary layers, each run forward and adjoint for both populates
        (dict(n_cavities=4, backend="effective"),
         dict(effective_propagate_cycle=2, effective_lossy_window=8)),
    ])
    def test_lossy_runs_go_through_the_public_backend_functions(self, monkeypatch, kw, calls):
        cfg = canonical_config(fock_m=1, bs_fidelity=0.99, **kw)
        grid = np.array([0.5, 1.0]) * cfg.tau_dm
        want = simulate_populations(cfg, grid)
        seen = dict.fromkeys(self.ROAD, 0)
        for name in self.ROAD:
            def counted(*args, _name=name, _real=getattr(protocol, name), **kwargs):
                seen[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(protocol, name, counted)
        got = simulate_populations(cfg, grid)
        assert seen == {**dict.fromkeys(self.ROAD, 0), **calls}
        for a, b in zip(want[:3], got[:3]):
            assert a.tobytes() == b.tobytes()
        for key in ("trace_defect_signal", "leakage_background", "dt", "bs_multiplier"):
            assert want[3][key] == got[3][key]


class TestSweep:
    def test_lossless_sweep_monotone(self):
        cfg = canonical_config(noise=NoiseModel.uniform(2, 5e-4, 0.0, 0.0))
        grid = default_tau_grid(cfg.tau_dm, 0.2, 21.0, 25)
        sw = snr_sweep(cfg, grid)
        assert np.all(np.diff(sw.snr) > 0)

    def test_lossless_peak_scales_as_sqrt_m_plus_1(self):
        # at fixed N the lossless peak SNR grows as sqrt(m+1) within 1%
        peaks = {}
        for m in (0, 2, 5):
            cfg = ideal_reference(canonical_config(fock_m=m))
            grid = default_tau_grid(cfg.tau_dm, 0.2, 30.0, 30)
            peaks[m] = snr_sweep(cfg, grid).snr_max
        for m in (2, 5):
            ratio = peaks[m] / peaks[0]
            assert ratio == pytest.approx(math.sqrt(m + 1), rel=1e-2)

    def test_argmax_shifts_down_with_m(self):
        cfg0 = canonical_config(fock_m=0)
        cfg5 = canonical_config(fock_m=5)
        grid = default_tau_grid(cfg0.tau_dm, 0.2, 40.0, 40)
        s0 = snr_sweep(cfg0, grid)
        s5 = snr_sweep(cfg5, grid)
        assert s5.tau_opt < s0.tau_opt

    def test_grid_coverage_enforced(self):
        cfg = canonical_config()
        with pytest.raises(InvalidArgument):
            snr_sweep(cfg, np.linspace(0.5, 30, 10) * cfg.tau_dm)
        with pytest.raises(InvalidArgument):
            snr_sweep(cfg, np.linspace(0.1, 10, 10) * cfg.tau_dm)

    def test_ideal_reference_strips_losses(self):
        cfg = canonical_config(bs_fidelity=0.99)
        ref = ideal_reference(cfg)
        assert ref.bs_fidelity == 1.0
        nm = ref.noise_model()
        assert max(nm.gamma_down) == 0.0 and max(nm.gamma_phi) == 0.0
        assert min(nm.gamma_up) > 0.0


class TestSemiclassical:
    def setup_method(self):
        self.cfg = canonical_config(fock_m=0)
        self.rates = transformed_rates(2, self.cfg.noise_model(), 0)

    def test_diffusive_limit_without_loss(self):
        rates0 = transformed_rates(2, NoiseModel.uniform(2, 0.5, 0.0, 0.0), 3)
        g, tau = 73.6, self.cfg.tau_dm
        r_s, _ = semiclassical_rates(g, tau, 2, 3, rates0, 500 * tau)
        assert r_s == pytest.approx(2 * g * g * tau * 2 * 4, rel=1e-2)

    def test_background_rate_at_origin(self):
        rates = transformed_rates(2, self.cfg.noise_model(), 4)
        _, r_b = semiclassical_rates(73.6, self.cfg.tau_dm, 2, 4, rates, 1e-9)
        assert r_b == pytest.approx(5 * rates.bar_gamma_up_1, rel=1e-4)

    def test_approx_matches_exact_in_window(self):
        # tau_dm < t << 1/gamma: the two forms agree
        rates = transformed_rates(2, self.cfg.noise_model(), 2)
        t = 5 * self.cfg.tau_dm
        rs_e, rb_e = semiclassical_rates(73.6, self.cfg.tau_dm, 2, 2, rates, t)
        rs_a, rb_a = semiclassical_rates_approx(73.6, self.cfg.tau_dm, 2, 2, rates, t)
        assert rs_a == pytest.approx(rs_e, rel=5e-2)
        assert rb_a == pytest.approx(rb_e, rel=5e-2)

    def test_backreaction_flag_is_small_correction(self):
        rates = transformed_rates(2, self.cfg.noise_model(), 5)
        t = np.array([3 * self.cfg.tau_dm])
        rs0, _ = semiclassical_rates(73.6, self.cfg.tau_dm, 2, 5, rates, t)
        rs1, _ = semiclassical_rates(73.6, self.cfg.tau_dm, 2, 5, rates, t,
                                     include_dm_backreaction=True)
        assert rs1[0] < rs0[0]
        assert rs1[0] == pytest.approx(rs0[0], rel=2e-2)

    def test_dlme_agreement_at_high_fock(self):
        # the closed-form rates track the full simulation at m = 10
        m, cfg = 10, canonical_config(fock_m=10)
        sp = HilbertSpace(2, m + 4)
        noise = cfg.noise_model()
        grid = np.linspace(1.5, 8.0, 6) * cfg.tau_dm
        rates = transformed_rates(2, noise, m)
        sig = propagate_cycle(sp, m, noise, 73.6, cfg.tau_dm, grid[-1], "signal",
                              ed=make_plan("binary", 2), record_times=grid)
        bg = propagate_cycle(sp, m, noise, 73.6, cfg.tau_dm, grid[-1], "background",
                             ed=make_plan("binary", 2), record_times=grid)
        ts = sig.times[1:]
        rs_sc, rb_sc = semiclassical_rates(73.6, cfg.tau_dm, 2, m, rates, ts)
        assert np.max(np.abs(rs_sc / (sig.population[1:] / ts) - 1)) < 0.10
        assert np.max(np.abs(rb_sc / (bg.population[1:] / ts) - 1)) < 0.10


class TestOptimalTauInt:
    def setup_method(self):
        self.cfg = canonical_config()

    def test_strong_depletion_limit(self):
        rates = transformed_rates(2, NoiseModel.uniform(2, 1e-3, 1e7, 0.0), 5)
        assert tau_analytic(self.cfg.tau_dm, rates) == pytest.approx(self.cfg.tau_dm, rel=1e-2)
        # both golden-section probes underflow to 0.0 here; the search still finds the peak
        tau_opt = optimal_tau_int(self.cfg.tau_dm, 5, rates)
        assert abs(tau_opt - tau_analytic(self.cfg.tau_dm, rates)) < 1e-6 * self.cfg.tau_dm

    def test_lossless_divergence(self):
        rates = transformed_rates(2, NoiseModel.uniform(2, 1e-3, 0.0, 0.0), 0)
        assert tau_analytic(self.cfg.tau_dm, rates) == math.inf

    def test_inverse_sqrt_scaling_near_lossless(self):
        tau = self.cfg.tau_dm
        vals = []
        for gamma in (1.0, 4.0):
            rates = transformed_rates(2, NoiseModel.uniform(2, 1e-3, gamma, 0.0), 0)
            vals.append(tau_analytic(tau, rates))
        assert vals[0] / vals[1] == pytest.approx(2.0, rel=1e-2)

    @pytest.mark.parametrize("m", [0, 2, 4, 6, 8, 10])
    def test_matches_dlme_argmax_within_20_percent(self, m):
        cfg = canonical_config(fock_m=m)
        grid = default_tau_grid(cfg.tau_dm, 0.2, 40.0, 50)
        sw = snr_sweep(cfg, grid)
        opt = optimal_tau_int(cfg.tau_dm, m, cfg.rates(),
                              tau_overhead=2 * cfg.tau_ed() + cfg.tau_spam)
        assert abs(opt - sw.tau_opt) / sw.tau_opt < 0.20


class TestSpamBackground:
    def test_perfect_readout(self):
        assert spam_background(0.0, 0.0, 1, 1e-3, 2.0) == 2.0

    def test_worked_example(self):
        # (0.01 + 0.01)/0.001 + 1 = 21 per second
        assert spam_background(0.01, 0.01, 1, 1e-3, 1.0) == pytest.approx(21.0)

    def test_repetition_recovers_base_rate(self):
        r20 = spam_background(0.05, 0.02, 20, 1e-3, 3.0)
        assert r20 == pytest.approx(3.0, rel=1e-12)

    def test_monotone_decreasing_in_repeats(self):
        vals = [spam_background(0.05, 0.03, n, 1e-3, 1.0) for n in range(1, 8)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            spam_background(1.0, 0.0, 1, 1e-3, 1.0)
        with pytest.raises(InvalidArgument):
            spam_background(0.1, 0.1, 0, 1e-3, 1.0)


class TestSpectatorCalibration:
    @pytest.mark.parametrize("n", [2, 4])
    def test_heating_only_sum_rule(self, n):
        ups = tuple(0.4 + 0.1 * k for k in range(n))
        noise = NoiseModel(ups, (0.0,) * n, (0.0,) * n)
        res = spectator_calibration(n, 1, noise, tau=5e-5)
        assert isinstance(res, CalibrationResult)
        assert res.primary_rate == pytest.approx(res.mean_spectator_rate, rel=1e-2)
        assert res.primary_rate == pytest.approx(res.bar_gamma_up_expected, rel=1e-2)

    def test_dephasing_breaks_equality_with_spectator_excess(self):
        n = 2
        noise = NoiseModel((0.5,) * n, (0.0,) * n, (40.0,) * n)
        res = spectator_calibration(n, 1, noise, tau=5e-5)
        assert res.mean_spectator_rate > res.primary_rate * 1.05


class TestLossyCycleOrdering:
    def test_bs_infidelity_reduces_snr(self):
        tau = canonical_config().tau_dm
        ideal = one_cycle(canonical_config(fock_m=2), 5 * tau)[2]
        lossy = one_cycle(canonical_config(fock_m=2, bs_fidelity=0.99), 5 * tau)[2]
        assert lossy < ideal

    def test_longer_integration_dilutes_bs_penalty(self):
        tau = canonical_config().tau_dm
        ratios = []
        for t in (2 * tau, 10 * tau):
            lossy = one_cycle(canonical_config(fock_m=2, bs_fidelity=0.99), t)[2]
            ideal = one_cycle(canonical_config(fock_m=2), t)[2]
            ratios.append(lossy / ideal)
        assert ratios[1] > ratios[0]
