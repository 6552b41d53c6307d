"""fockscan benchmark: CLI workloads measured end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each CLI invocation is a fresh process
(child.py) that runs fockscan from ./src through `fockscan.cli.main`, with
--jobs 1, one OpenMP/BLAS thread and the workload seed as --seed.  The
workload repeats until the next iteration would end after --seconds.

--trace 0 reports the end-to-end metrics, each a median over iterations:
  wall_s       wall time of the workload, first spawn to last exit
  cpu_s        user+sys CPU time of its processes
  setup_s      spawn to subcommand entry (interpreter start, imports,
               argument and config parsing), summed over the invocations;
               per invocation the median of setup-only probes and iterations
  peak_rss_mb  highest RSS of any of its processes
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of tracer.py, plus trace.overhead_s, the traced minus the
untraced median wall time.

An iteration fails if a process exits non-zero, if its output files differ
from the first iteration's (traced or not), or, for the first iteration, if
its key numbers leave the tolerances of checks.py around reference.json.
Traced iterations must also repeat the first traced iteration's counts.
The last stdout line is the JSON result; the line before it records the
machine, the source and every iteration.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# workload -> CLI invocations (subcommand, config under perfbench/configs), run in order.
WORKLOADS = {
    "scan-grid": [("scan-rate", "scan_grid.yaml")],
    "sweep-2cav": [("snr-sweep", "snr_sweep_two_cavity.yaml")],
    "mc-reach": [
        ("mc-dm", "mc_drive.yaml"),
        ("reach", "reach_bands.yaml"),
        ("exclusion", "exclusion_temps.yaml"),
        ("validate-gates", "gate_check.yaml"),
    ],
}

SETUP_PROBES = 3       # setup-only processes per invocation, besides the iterations
RUN_LIMIT_S = 170.0    # no process outlives this, counted from the start of the run

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {**UNITS, "trace.overhead_s": "s"}


@dataclass
class Proc:
    name: str
    code: int
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    trace: dict | None


@dataclass
class Iteration:
    mode: str
    path: Path
    procs: list[Proc] = field(default_factory=list)
    wall: float = 0.0

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def child_env() -> dict:
    """The parent's environment pinned to one thread, without fockscan overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FOCKSCAN_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(mode: str, name: str, argv: list[str], path: Path, env: dict, deadline: float) -> Proc:
    """Run child.py once; wall time is measured from just before the spawn."""
    path.mkdir(parents=True, exist_ok=True)
    report = path / f"{name}.report.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(report), mode, *argv]
    with open(path / f"{name}.stdout", "wb") as out, open(path / f"{name}.stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        marks = json.loads(report.read_text())
    except (OSError, ValueError):   # killed before or while writing it
        marks = {}
    start = marks.get("cmd_start")
    return Proc(
        name=name,
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,   # KiB on Linux
        setup=start - t0 if start is not None else None,
        trace=marks.get("trace"),
    )


def cli_args(sub: str, config: str, out: Path, seed: int) -> list[str]:
    return [sub, "--config", str(HERE / "configs" / config), "--out", str(out / sub),
            "--seed", str(seed), "--jobs", "1"]


def run_iteration(workload: str, mode: str, path: Path, seed: int, env: dict,
                  deadline: float) -> Iteration:
    it = Iteration(mode, path)
    t0 = time.monotonic()
    for sub, config in WORKLOADS[workload]:
        it.procs.append(spawn(mode, sub, cli_args(sub, config, path, seed),
                              path, env, deadline))
    it.wall = time.monotonic() - t0
    return it


def output_bytes(workload: str, path: Path) -> dict[str, bytes]:
    return {f"{sub}/{f.name}": f.read_bytes()
            for sub, _ in WORKLOADS[workload]
            if (path / sub).is_dir()
            for f in sorted((path / sub).iterdir())}


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for f in sorted((SRC / "fockscan").rglob("*")):
        if f.suffix in (".py", ".yaml"):
            digest.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run the workload; returns (result line, diagnostics line)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    env = child_env()
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    invocations = WORKLOADS[workload]
    try:
        # Not recorded: compiles bytecode on a fresh checkout.
        sub, config = invocations[0]
        spawn("setup", "warmup", cli_args(sub, config, work / "warmup", seed),
              work / "warmup", env, deadline)
        setups: dict[str, list[float]] = {sub: [] for sub, _ in invocations}
        if not trace:
            for k in range(SETUP_PROBES):
                path = work / f"probe{k}"
                for sub, config in invocations:
                    p = spawn("setup", sub, cli_args(sub, config, path, seed),
                              path, env, deadline)
                    if p.code == 0 and p.setup is not None:
                        setups[sub].append(p.setup)

        modes = ("run", "trace") if trace else ("run",)
        iterations: list[Iteration] = []
        while True:
            mode = modes[len(iterations) % len(modes)]
            path = work / f"iter{len(iterations)}"
            iterations.append(run_iteration(workload, mode, path, seed, env, deadline))
            if len(iterations) < len(modes):
                continue
            upcoming = modes[len(iterations) % len(modes)]
            estimate = max(i.wall for i in iterations if i.mode == upcoming)
            if time.monotonic() - start + estimate > seconds:
                break
        return _evaluate(workload, seed, trace, iterations, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:   # another run's directory is still there
            pass


def _evaluate(workload, seed, trace, iterations, setups):
    reference = json.loads((HERE / "reference.json").read_text())["key_numbers"][workload]
    problems: list[str] = []
    failed = 0
    first_bytes = None
    first_counts = None
    worst = None
    traced: list[dict] = []
    for n, it in enumerate(iterations):
        found = [f"{p.name} exited {p.code}" for p in it.procs if p.code != 0]
        if not found:
            files = output_bytes(workload, it.path)
            if first_bytes is None:
                first_bytes = files
                fails, worst = checks.check(workload, it.path, reference)
                found += fails
            elif files != first_bytes:
                differ = sorted(k for k in set(files) | set(first_bytes)
                                if files.get(k) != first_bytes.get(k))
                found.append(f"outputs differ from the first iteration: {differ}")
        if it.mode == "trace" and not found:
            metrics = layer_metrics([p.trace for p in it.procs])
            counts = {k: v for k, v in metrics.items() if UNITS.get(k) == "count"}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                found.append("counts differ from the first traced iteration")
            traced.append(metrics)
        for p in it.procs:
            if p.setup is not None and it.mode == "run" and p.code == 0:
                setups[p.name].append(p.setup)
        if found:
            failed += 1
            problems += [f"iteration {n} ({it.mode}): {msg}" for msg in found]

    def median_of(mode, attr):
        return statistics.median(getattr(i, attr) for i in iterations if i.mode == mode)

    values: dict[str, float] = {}
    if trace:
        if traced:
            for name in traced[0]:
                series = [m[name] for m in traced if name in m]
                values[name] = series[0] if UNITS.get(name) == "count" else statistics.median(series)
        values["trace.overhead_s"] = median_of("trace", "wall") - median_of("run", "wall")
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": median_of("run", "wall"),
            "cpu_s": median_of("run", "cpu"),
            "peak_rss_mb": median_of("run", "rss_mb"),
        }
        if all(setups.values()):
            values["setup_s"] = sum(statistics.median(s) for s in setups.values())
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": metrics,
    }
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_info(),
        "max_rel_deviation": worst,
        "absent": sorted(set(units) - set(values)),
        "problems": problems,
        "setup_samples": setups,
        "iterations": [
            {"mode": i.mode, "wall_s": i.wall, "cpu_s": i.cpu, "peak_rss_mb": i.rss_mb,
             "procs": {p.name: {"wall_s": p.wall, "setup_s": p.setup} for p in i.procs}}
            for i in iterations
        ],
    }
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fockscan" / "cli.py").is_file():
        print(f"no fockscan sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result, diagnostics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(diagnostics, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
