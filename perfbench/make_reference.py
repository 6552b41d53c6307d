"""Write perfbench/reference.json from the code in this checkout.

    python3 perfbench/make_reference.py [--seed N]

For every workload, one untraced and one traced iteration: the untraced
outputs give the key numbers that checks.py compares later runs against,
and the traced one gives the exact per-layer counts, recorded as the count
baseline.  The two iterations must write byte-identical outputs.  Run it on
the commit whose numbers should be the reference, and only then.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import checks
import run
from tracer import UNITS, layer_metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    env = run.child_env()
    deadline = time.monotonic() + 3600.0
    work = run.WORK / f"reference-{os.getpid()}"
    reference = {"machine": run.machine_info(), "seed": args.seed,
                 "key_numbers": {}, "counts": {}}
    try:
        for workload in run.WORKLOADS:
            plain = run.run_iteration(workload, "run", work / workload / "run",
                                      args.seed, env, deadline)
            traced = run.run_iteration(workload, "trace", work / workload / "trace",
                                       args.seed, env, deadline)
            for it in (plain, traced):
                bad = [p.name for p in it.procs if p.code != 0]
                if bad:
                    print(f"{workload}: {bad} exited non-zero", file=sys.stderr)
                    return 1
            if run.output_bytes(workload, plain.path) != run.output_bytes(workload, traced.path):
                print(f"{workload}: traced outputs differ", file=sys.stderr)
                return 1
            failures = checks.invariants(workload, plain.path)
            if failures:
                print(f"{workload}: {failures}", file=sys.stderr)
                return 1
            nums = checks.key_numbers(workload, plain.path)
            reference["key_numbers"][workload] = {k: v for k, (v, _) in sorted(nums.items())}
            metrics = layer_metrics([p.trace for p in traced.procs])
            reference["counts"][workload] = {k: v for k, v in sorted(metrics.items())
                                             if UNITS[k] == "count"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
