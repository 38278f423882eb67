"""Compare two surfscan artifact trees (the --out directories of two runs).

Usage: python tools/compare_runs.py A B

Prints one line per file: whether its sha256 is the same in both trees.
For a CSV file present in both with the same header and row count, it
also prints the largest absolute difference of each numeric column, or
why it cannot (a missing header, a ragged row, a cell that is not a
number). For another text file (report, OFF mesh, YAML) whose text
matches once every number is taken out, it prints the largest absolute
difference over the numbers, in order. For a PFM depth map of the same
size in both, it prints the largest per-pixel absolute difference. Exits
0 when every file is byte-identical, 1 otherwise.
"""
from __future__ import annotations

import csv
import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from surfscan.reconstruction import load_pfm  # noqa: E402

TEXT_SUFFIXES = (".txt", ".off", ".yaml")
# a decimal number, optionally signed, with optional fraction and exponent
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def column_deviation(a: Path, b: Path) -> dict[str, float] | str:
    """Largest |a - b| per column, or a reason the files do not line up."""
    table_a, table_b = _read_csv(a), _read_csv(b)
    if not table_a or not table_b:
        return f"no header in {b if table_a else a}"
    (head_a, *rows_a), (head_b, *rows_b) = table_a, table_b
    if head_a != head_b:
        return "headers differ"
    if len(rows_a) != len(rows_b):
        return f"row counts differ ({len(rows_a)} vs {len(rows_b)})"
    worst = dict.fromkeys(head_a, 0.0)
    for line, (ra, rb) in enumerate(zip(rows_a, rows_b), start=2):
        if not len(ra) == len(rb) == len(head_a):
            return f"line {line}: {len(ra)} vs {len(rb)} cells under {len(head_a)} columns"
        for name, x, y in zip(head_a, ra, rb):
            try:
                d = abs(float(x) - float(y))
            except ValueError:
                return f"line {line}: {name} is not a number ({x!r} vs {y!r})"
            if d > worst[name] or math.isnan(d):
                worst[name] = d
    return worst


def token_deviation(a: Path, b: Path) -> float | str:
    """Largest |a - b| over the files' numbers, paired in order, or a
    reason the files do not line up (their text outside the numbers
    differs)."""
    parts_a = _NUMBER.split(a.read_text(encoding="utf-8"))
    parts_b = _NUMBER.split(b.read_text(encoding="utf-8"))
    # split with one capture group: text at even indices, numbers at odd
    if len(parts_a) != len(parts_b):
        return f"number counts differ ({len(parts_a) // 2} vs {len(parts_b) // 2})"
    if parts_a[::2] != parts_b[::2]:
        return "non-numeric text differs"
    worst = 0.0
    for x, y in zip(parts_a[1::2], parts_b[1::2]):
        d = abs(float(x) - float(y))
        if d > worst or math.isnan(d):
            worst = d
    return worst


def pixel_deviation(a: Path, b: Path) -> float | str:
    """Largest per-pixel |a - b| of two PFM depth maps, or a reason the
    maps do not line up."""
    try:
        da, db = load_pfm(a), load_pfm(b)
    except ValueError as exc:
        return str(exc)
    if da.shape != db.shape:
        return f"sizes differ ({da.shape[1]} x {da.shape[0]} vs {db.shape[1]} x {db.shape[0]})"
    return float(np.max(np.abs(da.astype(float) - db)))


def compare(a: Path, b: Path, out=sys.stdout) -> bool:
    """Print the comparison; True when the trees are byte-identical."""
    fa, fb = _files(a), _files(b)
    same = fa == fb
    for name in sorted(fa | fb):
        if name not in fb or name not in fa:
            print(f"{name}: only in {a if name in fa else b}", file=out)
            continue
        if _sha(a / name) == _sha(b / name):
            print(f"{name}: sha256 identical", file=out)
            continue
        same = False
        print(f"{name}: sha256 differs", file=out)
        if name.endswith(".csv"):
            dev = column_deviation(a / name, b / name)
            if isinstance(dev, str):
                print(f"  {dev}", file=out)
            else:
                for col, d in dev.items():
                    print(f"  {col}: max |delta| = {d:.3g}", file=out)
        elif name.endswith((".pfm", *TEXT_SUFFIXES)):
            pfm = name.endswith(".pfm")
            dev = (pixel_deviation if pfm else token_deviation)(a / name, b / name)
            label = "pixels" if pfm else "numbers"
            print(f"  {dev}" if isinstance(dev, str) else f"  {label}: max |delta| = {dev:.3g}", file=out)
    return same


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = Path(argv[0]), Path(argv[1])
    for root in (a, b):
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    return 0 if compare(a, b) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
