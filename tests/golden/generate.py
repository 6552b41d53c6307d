"""Regenerate the golden CLI outputs.

Run from the repository root after an intentional behaviour change:

    python tests/golden/generate.py

For every file it writes, it prints whether the bytes changed and the
largest relative change of any number against the file it replaced; that
figure belongs in the change log of a golden-moving change.  Review the
diff before committing.

    python tests/golden/generate.py --check

regenerates into a temporary directory instead, prints the same verdicts
against expected/, leaves expected/ untouched and exits 1 if any file
changed.
"""
import argparse
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

from fockscan.cli import main

HERE = Path(__file__).parent

JOBS = [
    ("validate-gates", "gates.yaml", "gates"),
    ("mc-dm", "mc.yaml", "mc"),
    ("snr-sweep", "sweep.yaml", "sweep"),
    ("simulate-cycle", "cycle.yaml", "cycle"),
    ("scan-rate", "scan.yaml", "scan"),
    ("exclusion", "exclusion.yaml", "exclusion"),
    ("reach", "reach.yaml", "reach"),
    ("scan-rate", "scan_eff.yaml", "scan_eff"),
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf", re.IGNORECASE)


def _rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(old: bytes | None, new: bytes | None) -> str:
    """One-line verdict on a rewritten file: unchanged, or how far its numbers moved."""
    if old is None or new is None:
        return "new" if old is None else "removed"
    if old == new:
        return "unchanged"
    old_text, new_text = old.decode(), new.decode()
    old_nums, new_nums = NUMBER.findall(old_text), NUMBER.findall(new_text)
    if NUMBER.sub("#", old_text) != NUMBER.sub("#", new_text) or len(old_nums) != len(new_nums):
        return "changed: text differs beyond its numbers"
    worst = max(_rel_change(float(a), float(b)) for a, b in zip(old_nums, new_nums))
    return f"changed: max relative numeric change {worst:.3g}"


def regenerate(check: bool = False) -> int:
    """Rewrite expected/ (with check, a temporary copy) and print per-file verdicts.

    Returns 1 when check is set and any file differs from expected/, else 0.
    """
    changed = False
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) if check else HERE / "expected"
        for command, config, outname in JOBS:
            ref = HERE / "expected" / outname
            old = {p.name: p.read_bytes() for p in ref.iterdir()} if ref.exists() else {}
            out = root / outname
            if out.exists():
                shutil.rmtree(out)
            out.mkdir(parents=True)
            code = main([
                command, "--config", str(HERE / "configs" / config),
                "--out", str(out), "--jobs", "1",
            ])
            if code != 0:
                raise SystemExit(f"{command} exited with {code}")
            new = {p.name: p.read_bytes() for p in out.iterdir()}
            for name in sorted(old.keys() | new.keys()):
                verdict = compare(old.get(name), new.get(name))
                changed = changed or verdict != "unchanged"
                print(f"{command}: {outname}/{name}: {verdict}")
    return 1 if check and changed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden CLI outputs.")
    parser.add_argument("--check", action="store_true",
                        help="compare against expected/ without rewriting it; exit 1 on any change")
    sys.exit(regenerate(parser.parse_args().check))
