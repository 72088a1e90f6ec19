"""Correctness checks on the artifacts one entry call leaves on disk.

An op is one trajectory: one form of a `run`, or one point of a `sweep`.
Each check that fails marks the op it belongs to as failed and records why.
The energy and BD budgets are returned as values, not gates: at a != 1 they
are known to be wrong, and every workload here runs at a = 1.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

MASS_DRIFT_MAX = 1e-10  # acceptance criterion 02


def read_dir(outdir: Path) -> dict:
    """File name -> bytes for every artifact in the directory."""
    return {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir()) if p.is_file()}


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode())
        h.update(b"\0")
        h.update(data)
    return h.hexdigest()


def _table(data: bytes) -> tuple[list, list]:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _check_timeseries(data: bytes | None, frames: int) -> tuple[list, dict]:
    """Problems with one form's time series, plus its budget values."""
    if data is None:
        return ["time series missing"], {}
    header, rows = _table(data)
    problems = []
    if len(rows) != frames:
        problems.append(f"{len(rows)} time-series rows, expected {frames}")
    numeric = [i for i, name in enumerate(header) if not name.startswith("gron_pass_")]
    bad = sorted({header[i] for row in rows for i in numeric if i >= len(row) or not _finite(row[i])})
    if bad:
        return problems + [f"non-finite diagnostics: {' '.join(bad)}"], {}
    if not rows:
        return problems, {}
    col = {name: i for i, name in enumerate(header)}

    def series(name):
        return [float(row[col[name]]) for row in rows]

    mass = series("mass")
    drift = max(abs(m - mass[0]) for m in mass) / mass[0]
    if drift > MASS_DRIFT_MAX:
        problems.append(f"relative mass drift {drift!r} > {MASS_DRIFT_MAX!r}")
    values = {"mass_drift": drift}
    # max over t > 0 of (E + D)/E0 - 1, signed, as the acceptance battery computes it
    for key, energy, diss in (("energy_budget", "energy", "diss_u"), ("bd_budget", "bd_entropy", "diss_bd")):
        e, d = series(energy), series(diss)
        if len(e) > 1:
            values[key] = max(a + b for a, b in zip(e[1:], d[1:])) / e[0] - 1.0
    return problems, values


def check_run(files: dict, forms: list, frames: int, n_cells: int) -> dict:
    """Checks for a `run` artifact set; one op per form."""
    problems = {form: [] for form in forms}
    values = {}
    _, summary = _table(files.get("summary.csv", b"name\n"))
    status = {row[1]: row[2] for row in summary if len(row) > 2}
    steps = {row[1]: int(row[6]) for row in summary if len(row) > 6 and row[6].isdigit()}
    for form in forms:
        if status.get(form) != "completed":
            problems[form].append(f"status {status.get(form)!r}")
        name = "timeseries.csv" if form == forms[0] else "timeseries_v.csv"
        found, vals = _check_timeseries(files.get(name), frames)
        problems[form] += found
        values.update({f"{form}.{k}": v for k, v in vals.items()})
        values[f"{form}.steps"] = steps.get(form)

    primary = problems[forms[0]]
    fields = [name for name in files if name.startswith("fields_")]
    if len(fields) != frames:
        primary.append(f"{len(fields)} field snapshots, expected {frames}")
    for name in fields:
        data = files[name]
        if data.count(b"\n") != n_cells + 1 or b"undefined" in data:
            primary.append(f"{name}: wrong row count or non-finite cell")
            break
    if len(forms) == 2:
        _, diff = _table(files.get("formdiff.csv", b"t\n"))
        if len(diff) != frames:
            problems[forms[1]].append(f"{len(diff)} formdiff rows, expected {frames}")
    return {"ops": len(forms), "failed": sum(bool(p) for p in problems.values()),
            "problems": {k: v for k, v in problems.items() if v}, "values": values}


def check_sweep(files: dict, points: int) -> dict:
    """Checks for a `sweep` artifact set; one op per (alpha, gamma) point."""
    if "sweep.csv" not in files:
        return {"ops": points, "failed": points, "problems": {"sweep": ["sweep.csv missing"]}, "values": {}}
    header, rows = _table(files["sweep.csv"])
    col = {name: i for i, name in enumerate(header)}
    problems = {}
    for k, row in enumerate(rows):
        why = []
        if len(row) != len(header):
            why.append("malformed row")
        elif row[col["status"]] != "completed":
            why.append(f"status {row[col['status']]!r}")
        elif not (_finite(row[col["min_rho_run"]]) and _finite(row[col["sup_v_inf"]])):
            why.append("non-finite min_rho_run or sup_v_inf")
        if why:
            problems[f"row{k}"] = why
    failed = len(problems)
    if len(rows) != points:
        problems["sweep"] = [f"{len(rows)} sweep rows, expected {points}"]
        failed = points
    return {"ops": points, "failed": failed, "problems": problems,
            "values": {"unavailable_points": sum(
                len(row) == len(header) and row[col["gronwall"]] == "unavailable" for row in rows)}}
