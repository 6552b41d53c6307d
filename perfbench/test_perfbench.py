"""Tests of the benchmark itself; fockscan's own suite lives in tests/.

    python3 -m pytest perfbench -q

Some of them run real workloads, so the file takes a few minutes.
"""
import csv
import json
import shutil
import subprocess
import sys
import time

import pytest

import checks
import run
from tracer import UNITS, Tracer, layer_metrics

REFERENCE = json.loads((run.HERE / "reference.json").read_text())


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def _traced_counts(workload, seed, path):
    it = run.run_iteration(workload, "trace", path, seed, run.child_env(),
                           time.monotonic() + 600.0)
    assert [p.code for p in it.procs] == [0] * len(it.procs)
    metrics = layer_metrics([p.trace for p in it.procs])
    return {k: v for k, v in metrics.items() if UNITS[k] == "count"}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_across_runs_and_seeds(workload, tmp_path):
    first = _traced_counts(workload, 1, tmp_path / "a")
    second = _traced_counts(workload, 2, tmp_path / "b")
    assert first == second
    assert set(first) == set(REFERENCE["counts"][workload])


def test_missing_function_leaves_its_metrics_absent(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(run.SRC))
    from fockscan import cli, lindblad

    main = cli.main
    monkeypatch.delattr(lindblad, "effective_propagate_cycle")
    monkeypatch.delattr(lindblad, "calibrate_bs_multiplier")
    tracer = Tracer().install()
    try:
        code = cli.main(["validate-gates", "--config", str(run.HERE / "configs" / "gate_check.yaml"),
                         "--out", str(tmp_path), "--jobs", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.main is main
    metrics = layer_metrics([tracer.dump()])
    assert not {k for k in metrics if k.startswith(("lindblad.eff.", "lindblad.calibrate."))}
    assert metrics["lindblad.full.calls"] == 0
    assert metrics["gates.verify_ed.s"] > 0
    assert metrics["cli.self_s"] > 0
    assert set(metrics) <= set(UNITS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_metric(trace):
    res = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "mc-reach", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "mc-reach", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def _write_scan_csv(path, rows):
    path.mkdir(parents=True)
    with open(path / "scan_rate.csv", "w", newline="") as fh:
        fh.write("# tool=fockscan\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n_cavities", "fock_m", "snr_max", "tau_opt_over_taudm", "eta",
                         "rate_norm_sim"])
        writer.writerows(rows)


@pytest.mark.parametrize("scale, ok", [(1.0, True), (1.001, True), (1.05, False)])
def test_key_numbers_are_held_to_the_tolerance(tmp_path, scale, ok):
    ref = REFERENCE["key_numbers"]["scan-grid"]
    cols = ("snr_max", "tau_opt_over_taudm", "eta", "rate_norm_sim")
    tags = sorted({name.rsplit(".", 1)[0] for name in ref})
    rows = []
    for tag in tags:
        n, m = (part.split("=")[1] for part in tag.split(","))
        rows.append([n, m] + [repr(ref[f"{tag}.{c}"] * (scale if c == "eta" else 1.0))
                              for c in cols])
    _write_scan_csv(tmp_path / "scan-rate", rows)
    failures, worst = checks.check("scan-grid", tmp_path, ref)
    assert (not failures) == ok
    assert worst == pytest.approx(scale - 1.0)
