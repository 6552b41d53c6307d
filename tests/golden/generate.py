"""Regenerate the golden CLI outputs.

Run from the repository root after an intentional behaviour change:

    python tests/golden/generate.py

For every file it writes, it prints whether the bytes changed and, for a
changed file, how far its numbers moved against the file it replaced: the
largest relative change of its physics values, the largest absolute change
of its rounding residues (trace_defect, trace_error and leakage, which sit
near 1e-15, where a relative change says nothing), and then the same per
CSV column or JSON key.  Those figures belong in the change log of a
golden-moving change.  Review the diff before committing.

    python tests/golden/generate.py --check

regenerates into a temporary directory instead, prints the same verdicts
against expected/, leaves expected/ untouched and exits 1 if any file
changed.
"""
import argparse
import json
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

# Columns and keys (by prefix) that hold rounding residues, compared absolutely.
RESIDUES = ("trace_defect", "trace_error", "leakage")


def _rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _is_residue(key: str) -> bool:
    return key.rsplit(".", 1)[-1].startswith(RESIDUES)


def _fields(text: str) -> list[tuple[str, str]]:
    """(column or key, value text) for each field of a golden CSV or JSON file.

    CSV header lines give the key '# name'; JSON keys are dotted paths, with
    '[]' standing for every element of a list.
    """
    out = []
    if text.startswith("{"):
        def walk(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{path}.{key}" if path else key)
            elif isinstance(node, list):
                for value in node:
                    walk(value, f"{path}[]")
            else:
                out.append((path, json.dumps(node)))
        walk(json.loads(text), "")
        return out
    columns = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            out.append((f"# {key}", value))
        elif columns is None:
            columns = line.split(",")
        else:
            out.extend(zip(columns, line.split(",")))
    return out


def column_changes(old: bytes, new: bytes) -> dict[str, float]:
    """Largest change of each column or key between two files of the same layout.

    Rounding residues (RESIDUES) get an absolute change, every other number
    a relative one.
    """
    changes = {}
    for (key, a), (_, b) in zip(_fields(old.decode()), _fields(new.decode())):
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            x, y = float(x), float(y)
            moved = abs(x - y) if _is_residue(key) else _rel_change(x, y)
            changes[key] = max(changes.get(key, 0.0), moved)
    return changes


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
    changes = column_changes(old, new)
    worst = max((v for k, v in changes.items() if not _is_residue(k)), default=0.0)
    verdict = f"changed: max relative numeric change {worst:.3g}"
    residues = [v for k, v in changes.items() if _is_residue(k)]
    if residues:
        verdict += f", residues max absolute change {max(residues):.3g}"
    return verdict


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
                if verdict.startswith("changed: max"):
                    for key, moved in column_changes(old[name], new[name]).items():
                        if moved:
                            kind = "absolute" if _is_residue(key) else "relative"
                            print(f"    {key}: {kind} {moved:.3g}")
    return 1 if check and changed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden CLI outputs.")
    parser.add_argument("--check", action="store_true",
                        help="compare against expected/ without rewriting it; exit 1 on any change")
    sys.exit(regenerate(parser.parse_args().check))
