"""Correctness gate: compare the CSVs a workload wrote with checked-in references.

Numeric cells must be finite and agree with the reference to a relative
tolerance RTOL.  RTOL sits about three orders of magnitude above the
last-digit moves expected from accepted rewrites (a hand-written Simpson
rule, about 7e-15 relative; a float64 doubling route for K_t, about 1e-14)
and far below what a wrong K_t branch or a wrong step-noise factor produces.
Entries far below their column's largest magnitude (off-diagonal Gramian
entries that cancel to near zero, G at t = 0) are compared against
FLOOR times that magnitude instead of their own, since a faithful rewrite
may move them by a few ulps of the column scale.

For mc_verify.csv only the deterministic ``N`` and ``predicted`` columns are
compared, because the random stream layout may change; the Monte Carlo
columns must be finite and |zscore| must not exceed Z_MAX.  Z_MAX = 5 keeps
the chance that a correct run fails a row near 6e-7.
"""

from __future__ import annotations

import csv
import gzip
import math
import os

RTOL = 1e-11
FLOOR = 1e-6
Z_MAX = 5.0


def read_csv(path: str) -> list[list[str]]:
    """Rows of a CSV file; ``.gz`` references are decompressed."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare(produced: list[list[str]], reference: list[list[str]], columns=None) -> list[str]:
    """Problems found comparing ``produced`` with ``reference``; empty if none.

    ``columns`` restricts the tolerance comparison to the named columns;
    every numeric cell of ``produced`` must be finite regardless.
    """
    if not produced or produced[0] != reference[0]:
        return ["header differs from the reference"]
    if len(produced) != len(reference):
        return [f"{len(produced) - 1} rows, reference has {len(reference) - 1}"]
    header = reference[0]
    problems = []
    for r, row in enumerate(produced[1:], start=1):
        if len(row) != len(header):
            problems.append(f"row {r}: {len(row)} cells, header has {len(header)}")
        for c, cell in enumerate(row):
            v = _number(cell)
            if v is not None and not math.isfinite(v):
                problems.append(f"row {r} {header[c]}: non-finite value {cell}")
    if problems:
        return problems
    for c, name in enumerate(header):
        if columns is not None and name not in columns:
            continue
        ref = [row[c] for row in reference[1:]]
        got = [row[c] for row in produced[1:]]
        ref_num = [_number(x) for x in ref]
        scale = max((abs(v) for v in ref_num if v is not None), default=0.0)
        for r, (a, b, bv) in enumerate(zip(got, ref, ref_num), start=1):
            if bv is None:
                if a != b:
                    problems.append(f"row {r} {name}: {a!r}, reference {b!r}")
                continue
            av = _number(a)
            if av is None or abs(av - bv) > RTOL * max(abs(bv), FLOOR * scale):
                problems.append(f"row {r} {name}: {a}, reference {b}")
    return problems


def check_mc(produced: list[list[str]], reference: list[list[str]]) -> list[str]:
    problems = compare(produced, reference, columns=("N", "predicted"))
    if problems:
        return problems
    header = produced[0]
    for r, row in enumerate(produced[1:], start=1):
        cell = dict(zip(header, row))
        stderr, z = _number(cell["stderr"]), _number(cell["zscore"])
        if stderr is None or not stderr > 0:
            problems.append(f"row {r}: stderr {cell['stderr']!r} is not positive")
        if z is None or abs(z) > Z_MAX:
            problems.append(f"row {r}: |zscore| {cell['zscore']!r} exceeds {Z_MAX}")
    return problems


def check_file(produced_path: str, reference_path: str) -> list[str]:
    if not os.path.exists(produced_path):
        return [f"{os.path.basename(produced_path)} was not written"]
    produced, reference = read_csv(produced_path), read_csv(reference_path)
    if os.path.basename(produced_path) == "mc_verify.csv":
        return check_mc(produced, reference)
    return compare(produced, reference)
