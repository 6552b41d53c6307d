"""Correctness of a workload's outputs: key numbers against the reference.

Key numbers are read from the CLI's output files:

  scan-grid   per row: snr_max, tau_opt, eta and rate_norm_sim (scan_rate.csv)
  sweep-2cav  per Fock number: snr_max and tau_opt (snr_sweep.json)
  mc-reach    the closed-form n_analytic column (mc_dm.csv), the reach band
              edges (reach.json) and the exclusion fit exponents (exclusion.json)

and compared with `reference.json`, which make_reference.py wrote from the
seed commit.  Besides, every Monte Carlo mean must lie within MC_Z standard
errors of the closed form, and the gate report must say it passed.

The tolerances come from the acceptance suite (tests/test_acceptance.py), so
a documented numeric shift that the suite accepts (a better integrator, a
different step size) still passes, and a wrong answer does not:

  SIM_TOL    2%: simulated populations and SNR ratios, criteria 04 and 05.
  EXACT_TOL  1e-9 relative: closed-form numbers; criterion 05 holds the
             closed-form scan-rate ratio to 1e-9.
  MC_Z       5: criterion 02 asks |z| < 3 for one fixed seed; over arbitrary
             seeds and 50 correlated points, 1 seed in 20 reaches 3.1.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

SIM_TOL = 0.02
EXACT_TOL = 1e-9
MC_Z = 5.0


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def key_numbers(workload: str, out: Path) -> dict[str, tuple[float, float]]:
    """name -> (value, relative tolerance) for one iteration's output directory."""
    nums = {}
    if workload == "scan-grid":
        for row in _csv_rows(out / "scan-rate" / "scan_rate.csv"):
            tag = f"N={row['n_cavities']},m={row['fock_m']}"
            for col in ("snr_max", "tau_opt_over_taudm", "eta", "rate_norm_sim"):
                nums[f"{tag}.{col}"] = (float(row[col]), SIM_TOL)
    elif workload == "sweep-2cav":
        for tag, curve in _json(out / "snr-sweep" / "snr_sweep.json")["curves"].items():
            for col in ("snr_max", "tau_opt_over_taudm"):
                nums[f"{tag}.{col}"] = (float(curve[col]), SIM_TOL)
    elif workload == "mc-reach":
        for row in _csv_rows(out / "mc-dm" / "mc_dm.csv"):
            nums[f"t={row['t_over_tauDM']}.n_analytic"] = (float(row["n_analytic"]), EXACT_TOL)
        for tag, band in _json(out / "reach" / "reach.json")["bands"].items():
            for col in ("freq_start_hz", "freq_end_hz"):
                nums[f"{tag}.{col}"] = (float(band[col]), EXACT_TOL)
        fits = _json(out / "exclusion" / "exclusion.json")["fits_eps_eq_C_times_nth_w7_pow_p"]
        for tag, fit in fits.items():
            nums[f"{tag}.exponent"] = (float(fit["exponent"]), EXACT_TOL)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return nums


def invariants(workload: str, out: Path) -> list[str]:
    """Checks that need no reference; returns the failures."""
    failures = []
    if workload == "mc-reach":
        for row in _csv_rows(out / "mc-dm" / "mc_dm.csv"):
            z = abs(float(row["n_mc"]) - float(row["n_analytic"])) / float(row["mc_stderr"])
            if not z < MC_Z:
                failures.append(f"mc-dm t={row['t_over_tauDM']}: |z| = {z:.2f} >= {MC_Z}")
        if _json(out / "validate-gates" / "validate_gates.json")["report"]["passed"] is not True:
            failures.append("validate-gates: report.passed is not true")
    return failures


def check(workload: str, out: Path, reference: dict) -> tuple[list[str], float | None]:
    """(failures, largest relative deviation from the reference) for one output directory."""
    try:
        nums = key_numbers(workload, out)
        failures = invariants(workload, out)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"], None
    worst = 0.0
    if set(nums) != set(reference):
        failures.append(f"key numbers missing or unexpected: {sorted(set(nums) ^ set(reference))}")
    for name in sorted(set(nums) & set(reference)):
        value, tol = nums[name]
        ref = reference[name]
        dev = abs(value - ref) / abs(ref) if ref else abs(value)
        worst = max(worst, dev)
        if not dev <= tol:
            failures.append(f"{name}: {value!r} vs reference {ref!r} ({dev:.2e} > {tol:g})")
    return failures, worst
