"""Output checks on the CSV tables a workload pass writes.

Each check returns a list of problems; an empty list means the output is
correct.  Physics statuses such as ``pull_in`` or ``not_reached`` are
results, not failures.  The displacement sweep's rows from about 5.4 nm
up to its tuning limit lie on the unstable branch and are reported ``ok``
by the program today; that is a known defect, so these checks neither
require nor forbid it, and a later fix that flags those rows ``unstable``
still passes.
"""

from __future__ import annotations

import math

from workloads import TRANSFER_CASES, sweep_fields

KNOWN_STATUSES = {"ok", "pull_in", "tuning_error", "not_reached", "unstable"}


def read_table(path) -> tuple:
    """(column names, rows of string cells) of a result CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def row_count(path) -> int:
    return len(read_table(path)[1])


def _statics(columns, rows, points):
    problems = []
    if len(rows) != points:
        problems.append(f"{len(rows)} rows for {points} sweep points")
    for row in rows:
        status = row[-1]
        if status not in KNOWN_STATUSES:
            problems.append(f"unknown status {status!r}")
        elif status == "ok" and not all(math.isfinite(float(v)) for v in row[:-1]):
            problems.append(f"non-finite value in ok row {row}")
    return problems


def _transfer(columns, rows, name):
    g_hz = float(name.split("_")[1].removesuffix("MHz")) * 1e6
    target = TRANSFER_CASES[g_hz][1]
    f_max = max(float(row[columns.index("fidelity")]) for row in rows)
    if round(f_max, 3) != target:
        return [f"saturated fidelity {f_max:.6f} does not read {target:.3f}"]
    return []


def _scan(columns, rows, points):
    problems = []
    if len(rows) != points:
        problems.append(f"{len(rows)} rows for {points} sweep points")
    f_max = [float(row[columns.index("max_fidelity")]) for row in rows]
    for row in rows:
        if row[-1] != "ok":
            problems.append(f"status {row[-1]!r} at T = {row[0]} K")
        if not math.isfinite(float(row[columns.index("time_to_f95")])):
            problems.append(f"t95 not finite at T = {row[0]} K")
    if any(b > a for a, b in zip(f_max, f_max[1:])):
        problems.append("max_fidelity increases with temperature")
    return problems


def check_output(workload: str, name: str, path, calls) -> list:
    columns, rows = read_table(path)
    if not rows:
        return ["empty table"]
    if workload == "transfer_benchmarks":
        return _transfer(columns, rows, name)
    call = next(c for c in calls if c.name == name)
    points = int(sweep_fields(call.document)["points"])
    if workload == "statics_sweep":
        return _statics(columns, rows, points)
    return _scan(columns, rows, points)
