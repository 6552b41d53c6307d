"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output), so the suite doubles as a sign-off checklist.
"""
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dense_model import ed_residuals, ed_unitary
from fockscan.cli import main as cli_main
from fockscan.drive import mc_population, mean_population_detuned, rho_dm_si
from fockscan.fock import HilbertSpace
from fockscan.gates import make_plan, verify_ed
from fockscan.lindblad import NoiseModel, propagate_cycle, transformed_rates
from fockscan.lindblad import effective_propagate_cycle
from fockscan.protocol import (
    ProtocolConfig,
    default_tau_grid,
    ideal_reference,
    optimal_tau_int,
    simulate_populations,
    snr_sweep,
    spectator_calibration,
)
from fockscan.sensitivity import (
    CavityGeometry,
    SensitivityParams,
    exclusion_epsilon,
    scan_rate,
    thermal_occupation,
)
from fockscan.drive import cavity_volume_tm010, form_factor_tm010

OMEGA = 2 * math.pi * 7e9
SEED = 20260810
GOLDEN = Path(__file__).parent / "golden"


def report(number: int, ok: bool, title: str, detail: str):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {title}: {detail}")
    assert ok, f"criterion {number}: {title}: {detail}"


def reference_config(**kw):
    """The canonical two-cavity configuration used by the figure-level runs."""
    base = dict(
        n_cavities=2, fock_m=0, omega=OMEGA, temp_cavity=0.05,
        q_cavity=2.27e-3 * OMEGA, coupling_override=73.6,
        tau_tot=1.0, tau_spam=0.0, ed_scheme="binary", seed=SEED,
    )
    base.update(kw)
    return ProtocolConfig(**base)


def test_criterion_01_gate_algebra():
    worst = 0.0
    for n in (1, 2, 4):
        for scheme in ("linear", "binary"):
            plan = make_plan(scheme, n)
            space = HilbertSpace(n, 14)
            rep = verify_ed(plan, space, alpha=0.05, max_fock=3, tolerance=1e-9)
            worst = max(worst, rep.conjugation_residual, rep.dual_residual,
                        rep.displacement_residual, rep.sum_rule_residual,
                        rep.coefficient_column_residual)
            # independent dense-operator check of the conjugation relations
            dense_cut = 6 if n <= 2 else 4
            dense_space = HilbertSpace(n, dense_cut)
            rep_d = ed_residuals(ed_unitary(dense_space, plan), dense_space)
            worst = max(worst, rep_d["conjugation"], rep_d["dual"], rep_d["sum_rule"])
    report(1, worst < 1e-9, "gate algebra for N in {1,2,4}, both schemes",
           f"worst residual {worst:.2e} < 1e-9")


def test_criterion_02_stochastic_drive_oracle():
    grid = np.linspace(0.4, 20.0, 50)
    worst = 0.0
    for (g, delta, label) in ((1.0, 0.0, "resonant"), (1.0, 2.0, "g=a=delta/2")):
        res = mc_population(g, 1.0, delta, grid, n_traj=10000, seed=SEED)
        analytic = mean_population_detuned(g, 1.0, delta, grid)
        z = np.abs(res.mean - analytic) / res.stderr
        worst = max(worst, float(z.max()))
    report(2, worst < 3.0, "Monte Carlo vs closed-form drive population",
           f"max |z| = {worst:.2f} < 3 over both detunings (1e4 trajectories)")


def test_criterion_03_dlme_convergence_and_conservation():
    worst_trace = 0.0
    worst_change = 0.0
    for m in (0, 5):
        cfg = reference_config(fock_m=m)
        tau_end = 20 * cfg.tau_dm
        _, ns1, nb1, diag1 = simulate_populations(cfg, [tau_end])
        worst_trace = max(worst_trace, diag1["trace_defect_signal"],
                          diag1["trace_defect_background"])
        half = replace(cfg, dt=diag1["dt"] / 2.0)
        _, ns2, nb2, _ = simulate_populations(half, [tau_end])
        worst_change = max(worst_change,
                           abs(ns2[-1] / ns1[-1] - 1), abs(nb2[-1] / nb1[-1] - 1))
    ok = worst_trace < 1e-6 and worst_change < 5e-3
    report(3, ok, "trace conservation and dt convergence",
           f"trace drift {worst_trace:.1e} < 1e-6; halving dt moves populations "
           f"{100 * worst_change:.3f}% < 0.5%")


def test_criterion_04_backend_cross_validation():
    worst = 0.0
    grid = np.linspace(0.5, 10.0, 12)
    for m in (0, 1, 2):
        cfg = reference_config(fock_m=m)
        noise = cfg.noise_model()
        sp = HilbertSpace(2, m + 4)
        rates = transformed_rates(2, noise, m)
        taus = grid * cfg.tau_dm
        for populate in ("signal", "background"):
            full = propagate_cycle(sp, m, noise, 73.6, cfg.tau_dm, taus[-1], populate,
                                   ed=make_plan("binary", 2), record_times=taus)
            eff = effective_propagate_cycle(2, m, rates, 73.6, cfg.tau_dm, taus[-1],
                                            populate, record_times=taus)
            k = min(len(full.population), len(eff.population))
            rel = np.abs(eff.population[1:k] / full.population[1:k] - 1.0)
            worst = max(worst, float(rel.max()))
    report(4, worst < 0.02, "effective vs full backend at N=2, m in {0,1,2}",
           f"max relative deviation {100 * worst:.2f}% < 2%")


def test_criterion_05_ideal_scaling_laws():
    grid_pts = (0.2, 40.0, 60)
    peaks = {}
    for n in (1, 2, 4, 8):
        for m in range(6):
            cfg = reference_config(n_cavities=n, fock_m=m,
                                   backend="full" if n <= 2 else "effective")
            lossless = ideal_reference(cfg)
            grid = default_tau_grid(cfg.tau_dm, *grid_pts)
            peaks[(n, m)] = snr_sweep(lossless, grid).snr_max
    ref = peaks[(1, 0)]
    worst = max(
        abs(peaks[(n, m)] / ref / (n * math.sqrt(m + 1)) - 1.0)
        for n in (1, 2, 4, 8) for m in range(6)
    )
    geo = CavityGeometry(omega=OMEGA, volume=cavity_volume_tm010(OMEGA),
                         form_factor_g=form_factor_tm010())
    params = dict(rho_dm=rho_dm_si(0.45), q_cav=1e8, temp_cavity=0.05,
                  target_epsilon=1e-16)
    ratio = (scan_rate(SensitivityParams(n_cavities=8, fock_m=5, **params), geo).rate
             / scan_rate(SensitivityParams(n_cavities=1, fock_m=0, **params), geo).rate)
    ok = worst < 0.02 and abs(ratio - 384.0) < 1e-9
    report(5, ok, "lossless SNR scaling N sqrt(m+1) and ideal scan-rate ratio",
           f"worst SNR-ratio deviation {100 * worst:.2f}% < 2%; "
           f"formula ratio (8,5)/(1,0) = {ratio:.12f}")


def test_criterion_06_snr_curve_reproduction():
    grid = None
    argmaxes = []
    closed = []
    interior = []
    for m in range(6):
        cfg = reference_config(fock_m=m)
        grid = default_tau_grid(cfg.tau_dm, 0.2, 40.0, 60)
        sw = snr_sweep(cfg, grid)
        opt = optimal_tau_int(cfg.tau_dm, m, cfg.rates(),
                              tau_overhead=2 * cfg.tau_ed() + cfg.tau_spam)
        argmaxes.append(sw.tau_opt)
        closed.append(opt)
        interior.append(grid[0] < sw.tau_opt < grid[-1])
    decreasing = all(a > b for a, b in zip(argmaxes, argmaxes[1:]))
    worst = max(abs(c - s) / s for c, s in zip(closed, argmaxes))
    ok = all(interior) and decreasing and worst < 0.20
    report(6, ok, "SNR(tau_int) curves: interior maxima shifting down with m",
           f"interior={all(interior)}, strictly decreasing={decreasing}, "
           f"closed-form argmax deviation {100 * worst:.1f}% < 20%")


def test_criterion_07_scan_rate_enhancement():
    grid_lo, grid_hi, pts = 0.2, 40.0, 60
    etas = {}
    for (n, m) in ((1, 0), (8, 5)):
        cfg = reference_config(n_cavities=n, fock_m=m, bs_fidelity=0.99,
                               backend="effective" if n > 2 else "auto")
        grid = default_tau_grid(cfg.tau_dm, grid_lo, grid_hi, pts)
        sim = snr_sweep(cfg, grid).snr_max
        ideal = snr_sweep(ideal_reference(cfg), grid).snr_max
        etas[(n, m)] = sim / ideal
    enhancement = 384.0 * (etas[(8, 5)] / etas[(1, 0)]) ** 2
    ok = 200.0 <= enhancement <= 384.0
    report(7, ok, "simulated scan-rate enhancement (8,5)/(1,0) at 99% splitters",
           f"eta-weighted enhancement {enhancement:.1f} in [200, 384] "
           f"(eta(8,5)={etas[(8, 5)]:.3f}, eta(1,0)={etas[(1, 0)]:.3f})")


def test_criterion_08_calibration_sum_rule():
    worst = 0.0
    for n in (2, 4):
        ups = tuple(0.4 + 0.12 * k for k in range(n))
        noise = NoiseModel(ups, (0.0,) * n, (0.0,) * n)
        res = spectator_calibration(n, 1, noise, tau=5e-5)
        worst = max(worst, abs(res.mean_spectator_rate / res.primary_rate - 1.0))
    noise_deph = NoiseModel((0.5, 0.5), (0.0, 0.0), (40.0, 40.0))
    deph = spectator_calibration(2, 1, noise_deph, tau=5e-5)
    excess = deph.mean_spectator_rate > deph.primary_rate
    ok = worst < 0.01 and excess
    report(8, ok, "spectator-average vs signal-mode background rate",
           f"heating-only mismatch {100 * worst:.3f}% < 1%; "
           f"dephasing gives spectator excess: {excess}")


def test_criterion_09_exclusion_shape():
    freqs = np.linspace(3e9, 12e9, 30)
    curves = {}
    worst_exp = 0.0
    for temp in (0.025, 0.05, 0.075):
        params = SensitivityParams(
            rho_dm=rho_dm_si(0.45), q_cav=1e8, n_cavities=4, fock_m=5,
            temp_cavity=temp, target_epsilon=1e-16,
        )
        eps = np.array([exclusion_epsilon(2 * math.pi * f, params, 10.0) for f in freqs])
        curves[temp] = eps
        x = np.log([thermal_occupation(2 * math.pi * f, temp) * (2 * math.pi * f) ** 7
                    for f in freqs])
        slope = np.polyfit(x, np.log(eps), 1)[0]
        worst_exp = max(worst_exp, abs(slope / 0.25 - 1.0))
    ordered = bool(np.all(curves[0.025] < curves[0.05])
                   and np.all(curves[0.05] < curves[0.075]))
    ok = worst_exp < 0.05 and ordered
    report(9, ok, "exclusion fits C (n_th w^7)^(1/4) with strict temperature ordering",
           f"exponent error {100 * worst_exp:.2f}% < 5%; ordering strict: {ordered}")


def test_criterion_10_cli_determinism(tmp_path):
    jobs = [
        ("validate-gates", "gates.yaml", ["validate_gates.json"]),
        ("mc-dm", "mc.yaml", ["mc_dm.csv"]),
        ("simulate-cycle", "cycle.yaml",
         ["cycle.json", "cycle_signal.csv", "cycle_background.csv"]),
        ("snr-sweep", "sweep.yaml", ["snr_sweep.csv", "snr_sweep.json"]),
        ("scan-rate", "scan.yaml", ["scan_rate.csv", "scan_rate.json"]),
        ("exclusion", "exclusion.yaml", ["exclusion.csv", "exclusion.json"]),
        ("reach", "reach.yaml", ["reach.csv", "reach.json"]),
    ]
    failures = []
    for command, config, outputs in jobs:
        cfg = GOLDEN / "configs" / config
        out1 = tmp_path / command / "a"
        out2 = tmp_path / command / "b"
        code1 = cli_main([command, "--config", str(cfg), "--out", str(out1), "--jobs", "1"])
        code2 = cli_main([command, "--config", str(cfg), "--out", str(out2), "--jobs", "1"])
        if code1 != 0 or code2 != 0:
            failures.append(f"{command} exited {code1}/{code2}")
            continue
        for name in outputs:
            data = (out1 / name).read_bytes()
            if data != (out2 / name).read_bytes():
                failures.append(f"{command}/{name} not repeatable")
            # each golden directory is named after its job's config
            golden = GOLDEN / "expected" / Path(config).stem / name
            if not golden.exists() or data != golden.read_bytes():
                failures.append(f"{command}/{name} differs from golden file")
    ok = not failures
    report(10, ok, "CLI byte-reproducibility against golden files",
           "all 7 subcommands reproducible" if ok else "; ".join(failures))
