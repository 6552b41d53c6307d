"""Command-line front end: config in, deterministic CSV/JSON tables out.

Subcommands: validate-gates, mc-dm, simulate-cycle, snr-sweep, scan-rate,
exclusion, reach.  Every output file starts with a '# key=value' header
block (config hash, version, seed, backend, dt) sufficient to re-run the
job, and identical (config, seed, version) always reproduce identical bytes.

Exit codes: 0 ok, 1 gate verification failed, 2 configuration error,
3 numerical guard tripped (including a numpy overflow or invalid operation,
such as one that makes a NaN).

Flags can also be set through environment variables FOCKSCAN_CONFIG,
FOCKSCAN_SEED, FOCKSCAN_JOBS, FOCKSCAN_OUT, FOCKSCAN_BACKEND.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    SCHEMA,
    build_protocol_config,
    build_sensitivity_params,
    config_hash,
    load_config,
    require_sections,
    run_seed,
)
from .drive import mc_population, mean_population_detuned
from .errors import (
    BudgetTooSmall,
    ConfigError,
    FidelityUnreachable,
    FockscanError,
    InvalidArgument,
    StabilityGuard,
    TruncationLeak,
    UnsupportedCavityCount,
)
from .fock import HilbertSpace
from .gates import make_plan, verify_ed
from .parallel import pool_map
from .protocol import (
    default_tau_grid,
    optimal_tau_int,
    scan_rate_grid,
    simulate_populations,
    snr_from_counts,
    snr_sweep,
)
from .sensitivity import exclusion_epsilon, reach_band, thermal_occupation

TWO_PI = 2.0 * math.pi

# Index convention reminder carried in every output header.
MODE_NOTE = "mode0_is_primary_cavity"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12e")
    return str(x)


def _write_csv(path: Path, header: dict, columns, rows):
    with open(path, "w", newline="") as fh:
        for key in sorted(header):
            fh.write(f"# {key}={header[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, header: dict, payload: dict):
    doc = {"meta": {k: header[k] for k in sorted(header)}, **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def _header(doc, args, command, **extra) -> dict:
    head = {
        "tool": "fockscan",
        "version": __version__,
        "command": command,
        "config_hash": config_hash(doc),
        "seed": run_seed(doc, args.seed),
        "convention": MODE_NOTE,
    }
    head.update(extra)
    return head


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate_gates(doc, args, out_dir: Path) -> int:
    require_sections(doc, ["gates"], "validate-gates")
    sec = doc["gates"]
    n = sec["n_cavities"]
    plan = make_plan(sec["scheme"], n)
    cutoff = sec.get("cutoff", 12)
    space = HilbertSpace(n, cutoff)
    report = verify_ed(
        plan, space,
        alpha=sec.get("alpha", 0.05),
        max_fock=sec.get("max_fock", 3),
        tolerance=sec.get("tolerance", 1e-9),
    )
    payload = {"report": report.to_dict(), "scheme": sec["scheme"], "depth": plan.depth}
    _write_json(out_dir / "validate_gates.json", _header(doc, args, "validate-gates"), payload)
    print(json.dumps(payload["report"], sort_keys=True))
    return 0 if report.passed else 1


def cmd_mc_dm(doc, args, out_dir: Path) -> int:
    require_sections(doc, ["protocol", "mc"], "mc-dm")
    cfg = build_protocol_config(doc, backend=args.backend, seed=args.seed)
    sec = doc["mc"]
    tau_dm = cfg.tau_dm
    n_traj = sec.get("n_traj", 10000)
    points = sec.get("points", 50)
    t_max = sec.get("t_max_taudm", 20.0)
    delta = sec.get("detuning_linewidths", 0.0) / tau_dm
    grid = np.linspace(t_max / points, t_max, points) * tau_dm
    g = cfg.coupling()
    res = mc_population(g, tau_dm, delta, grid, n_traj, cfg.seed, n_jobs=args.jobs)
    analytic = mean_population_detuned(g, tau_dm, delta, grid)
    head = _header(doc, args, "mc-dm", n_traj=n_traj, coupling_rad_s=_fmt(g),
                   tau_dm_s=_fmt(tau_dm), delta_rad_s=_fmt(delta))
    _write_csv(
        out_dir / "mc_dm.csv", head,
        ["t_over_tauDM", "n_analytic", "n_mc", "mc_stderr"],
        [(t / tau_dm, a, m_, s) for t, a, m_, s in zip(grid, analytic, res.mean, res.stderr)],
    )
    return 0


def cmd_simulate_cycle(doc, args, out_dir: Path) -> int:
    require_sections(doc, ["protocol", "cycle"], "simulate-cycle")
    cfg = build_protocol_config(doc, backend=args.backend, seed=args.seed)
    tau_int = doc["cycle"]["tau_int_taudm"] * cfg.tau_dm
    grid = np.linspace(tau_int / 120.0, tau_int, 120)
    times, n_s, n_b, diag = simulate_populations(cfg, grid)
    tau_cycle = cfg.tau_cycle(float(times[-1]))
    result = {
        "n_s": float(n_s[-1]),
        "n_b": float(n_b[-1]),
        "r_s": float(n_s[-1]) / tau_cycle,
        "r_b": float(n_b[-1]) / tau_cycle,
        "snr": snr_from_counts(float(n_s[-1]), float(n_b[-1]), tau_cycle, cfg.tau_tot),
        "tau_cycle_s": tau_cycle,
        "tau_int_s": float(times[-1]),
        "backend": diag["backend"],
        "dt_s": diag["dt"],
        "trace_defect_signal": diag["trace_defect_signal"],
        "trace_defect_background": diag["trace_defect_background"],
        "leakage_signal": diag["leakage_signal"],
        "leakage_background": diag["leakage_background"],
    }
    head = _header(doc, args, "simulate-cycle", backend=diag["backend"], dt_s=_fmt(diag["dt"]))
    _write_json(out_dir / "cycle.json", head, {"cycle": result})
    for populate, series in (("signal", n_s), ("background", n_b)):
        ser = diag[f"series_{populate}"]
        _write_csv(
            out_dir / f"cycle_{populate}.csv", head,
            ["t_s", "population", "trace_error", "leakage"],
            zip(times, series, ser["trace"], ser["leakage"]),
        )
    return 0


def _sweep_one(cfg, lo, hi, points):
    grid = default_tau_grid(cfg.tau_dm, lo, hi, points)
    return snr_sweep(cfg, grid)


def cmd_snr_sweep(doc, args, out_dir: Path) -> int:
    require_sections(doc, ["protocol"], "snr-sweep")
    cfg = build_protocol_config(doc, backend=args.backend, seed=args.seed)
    sec = doc.get("sweep", {})
    m_list = sec.get("fock_m_list", [cfg.fock_m])
    lo = sec.get("tau_int_min_taudm", 0.2)
    hi = sec.get("tau_int_max_taudm", 40.0)
    points = sec.get("points", 60)
    configs = [replace(cfg, fock_m=m, cutoff=None) for m in m_list]
    sweeps = pool_map(_sweep_one, [(c, lo, hi, points) for c in configs], args.jobs)

    head = _header(doc, args, "snr-sweep",
                   backend=sweeps[0].backend, dt_s=_fmt(sweeps[0].diagnostics["dt"]))
    rows = []
    summary = {}
    for m, c, sw in zip(m_list, configs, sweeps):
        for t, ns, nb, s in zip(sw.tau_int, sw.n_s, sw.n_b, sw.snr):
            rows.append((m, t / cfg.tau_dm, s, ns, nb))
        opt = optimal_tau_int(c.tau_dm, m, c.rates(), tau_overhead=2 * c.tau_ed() + c.tau_spam)
        summary[f"m={m}"] = {
            "tau_opt_over_taudm": sw.tau_opt / cfg.tau_dm,
            "snr_max": sw.snr_max,
            "tau_opt_closed_form_over_taudm": opt.tau_opt / cfg.tau_dm,
            "backend": sw.backend,
            "dt_s": sw.diagnostics["dt"],
            "trace_defect": max(sw.diagnostics["trace_defect_signal"],
                                sw.diagnostics["trace_defect_background"]),
            "leakage": max(sw.diagnostics["leakage_signal"], sw.diagnostics["leakage_background"]),
        }
    _write_csv(
        out_dir / "snr_sweep.csv", head,
        ["fock_m", "tau_int_over_taudm", "snr", "n_s", "n_b"], rows,
    )
    _write_json(out_dir / "snr_sweep.json", head, {"curves": summary})
    return 0


def cmd_scan_rate(doc, args, out_dir: Path) -> int:
    require_sections(doc, ["protocol"], "scan-rate")
    cfg = build_protocol_config(doc, backend=args.backend, seed=args.seed)
    sec = doc.get("sweep", {})
    n_list = sec.get("n_cavities_list", [1, 2, 4, 8])
    m_list = sec.get("fock_m_list", [0, 1, 2, 3, 4, 5])
    lo = sec.get("tau_int_min_taudm", 0.2)
    hi = sec.get("tau_int_max_taudm", 40.0)
    points = sec.get("points", 60)
    rows = scan_rate_grid(cfg, n_list, m_list, (lo, hi, points), jobs=args.jobs)
    head = _header(doc, args, "scan-rate",
                   backends="+".join(sorted({r.backend for r in rows})))
    _write_csv(
        out_dir / "scan_rate.csv", head,
        ["n_cavities", "fock_m", "snr_max", "tau_opt_over_taudm", "eta",
         "rate_norm_ideal", "rate_norm_sim", "snr_ratio_sq", "backend"],
        [(r.n_cavities, r.fock_m, r.snr_max, r.tau_opt / cfg.tau_dm, r.eta,
          r.rate_norm_ideal, r.rate_norm_sim, r.snr_ratio_sq, r.backend) for r in rows],
    )
    best = max(rows, key=lambda r: r.rate_norm_sim)
    _write_json(out_dir / "scan_rate.json", head, {
        "normalisation": "(N=%d, m=%d)" % (min(n_list), min(m_list)),
        "max_enhancement_sim": best.rate_norm_sim,
        "max_enhancement_at": {"n_cavities": best.n_cavities, "fock_m": best.fock_m},
        "rows": [r.__dict__ for r in rows],
    })
    return 0


def cmd_exclusion(doc, args, out_dir: Path) -> int:
    require_sections(doc, ["sensitivity"], "exclusion")
    sec = doc["sensitivity"]
    for key in ("freq_min_ghz", "freq_max_ghz", "freq_points", "tau_tot_s", "q_cavity",
                "n_cavities", "fock_m", "target_epsilon"):
        if key not in sec:
            raise ConfigError(f"exclusion needs sensitivity.{key}")
    freqs = np.linspace(sec["freq_min_ghz"], sec["freq_max_ghz"], sec["freq_points"]) * 1e9
    temps = sec.get("temps_mk", [50.0])
    tau_tot = sec["tau_tot_s"]
    rows = []
    fits = {}
    for temp_mk in temps:
        params = build_sensitivity_params(doc, temp_k=temp_mk * 1e-3)
        eps = np.array([exclusion_epsilon(TWO_PI * f, params, tau_tot) for f in freqs])
        for f, e in zip(freqs, eps):
            rows.append((f, temp_mk, e))
        # fit eps = C (n_th w^7)^p in log space
        x = np.array([
            math.log(thermal_occupation(TWO_PI * f, temp_mk * 1e-3) * (TWO_PI * f) ** 7)
            for f in freqs
        ])
        slope, intercept = np.polyfit(x, np.log(eps), 1)
        fits[f"{temp_mk:g}mK"] = {"exponent": float(slope), "coefficient": float(math.exp(intercept))}
    head = _header(doc, args, "exclusion", tau_tot_s=_fmt(tau_tot))
    _write_csv(out_dir / "exclusion.csv", head, ["freq_hz", "temp_mk", "epsilon"], rows)
    _write_json(out_dir / "exclusion.json", head, {
        "fits_eps_eq_C_times_nth_w7_pow_p": fits,
        "expected_exponent": 0.25,
    })
    return 0


def cmd_reach(doc, args, out_dir: Path) -> int:
    require_sections(doc, ["sensitivity"], "reach")
    sec = doc["sensitivity"]
    for key in ("freq_min_ghz", "time_budget_hours", "target_epsilon", "q_cavity"):
        if key not in sec:
            raise ConfigError(f"reach needs sensitivity.{key}")
    budget = sec["time_budget_hours"] * 3600.0
    omega0 = TWO_PI * sec["freq_min_ghz"] * 1e9
    configs = sec.get("configurations")
    if not configs:
        configs = [{"n_cavities": sec["n_cavities"], "fock_m": sec["fock_m"]}]
    head = _header(doc, args, "reach", time_budget_s=_fmt(budget))
    rows = []
    bands = {}
    for conf in configs:
        params = build_sensitivity_params(doc, n_cavities=conf["n_cavities"], fock_m=conf["fock_m"])
        band = reach_band(sec["target_epsilon"], budget, params, omega0)
        stride = max(1, band.n_steps // 2000)
        for (omega, tau_tot, cum) in band.steps[::stride]:
            rows.append((conf["n_cavities"], conf["fock_m"], omega / TWO_PI, tau_tot, cum))
        bands[f"N={conf['n_cavities']},m={conf['fock_m']}"] = {
            "freq_start_hz": band.freq_start_hz,
            "freq_end_hz": band.freq_end_hz,
            "band_width_hz": band.freq_end_hz - band.freq_start_hz,
            "n_steps": band.n_steps,
            "total_time_s": band.total_time,
        }
    _write_csv(
        out_dir / "reach.csv", head,
        ["n_cavities", "fock_m", "freq_hz", "tau_tot_s", "cumulative_time_s"], rows,
    )
    _write_json(out_dir / "reach.json", head, {"bands": bands})
    return 0


COMMANDS = {
    "validate-gates": cmd_validate_gates,
    "mc-dm": cmd_mc_dm,
    "simulate-cycle": cmd_simulate_cycle,
    "snr-sweep": cmd_snr_sweep,
    "scan-rate": cmd_scan_rate,
    "exclusion": cmd_exclusion,
    "reach": cmd_reach,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockscan",
        description="Entangled Fock-state cavity-array dark-matter search simulator "
                    "(mode 0 is the primary cavity in all outputs).",
    )
    parser.add_argument("--version", action="version", version=f"fockscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=os.environ.get("FOCKSCAN_CONFIG"),
                       help="YAML run configuration (env: FOCKSCAN_CONFIG)")
        # string defaults from the environment go through type=int, so a
        # malformed value exits 2 with a usage message; empty counts as unset;
        # main holds the seed to the config schema's range the same way
        p.add_argument("--seed", type=int,
                       default=os.environ.get("FOCKSCAN_SEED") or None,
                       help="override the config seed (env: FOCKSCAN_SEED)")
        p.add_argument("--jobs", type=int,
                       default=os.environ.get("FOCKSCAN_JOBS") or os.cpu_count() or 1,
                       help="worker processes for sweeps, at most one per task and CPU "
                            "(env: FOCKSCAN_JOBS)")
        p.add_argument("--out", default=os.environ.get("FOCKSCAN_OUT", "."),
                       help="output directory (env: FOCKSCAN_OUT)")
        p.add_argument("--backend", choices=["full", "effective", "auto"],
                       default=os.environ.get("FOCKSCAN_BACKEND"),
                       help="propagation backend override (env: FOCKSCAN_BACKEND)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    bounds = SCHEMA["properties"]["seed"]
    if args.seed is not None and not bounds["minimum"] <= args.seed <= bounds["maximum"]:
        parser.error(f"argument --seed: {args.seed} is outside the seed range "
                     f"{bounds['minimum']}..{bounds['maximum']}")
    try:
        if not args.config:
            raise ConfigError("--config is required (or set FOCKSCAN_CONFIG)")
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        doc = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # an overflow or NaN in numpy raises FloatingPointError and exits 3
        with np.errstate(over="raise", invalid="raise"):
            return COMMANDS[args.command](doc, args, out_dir)
    except (ConfigError, InvalidArgument, UnsupportedCavityCount) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StabilityGuard, TruncationLeak, FidelityUnreachable, BudgetTooSmall,
            ArithmeticError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except FockscanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
