"""Check a scenario's outputs against its reference and against the program's own gates.

A reference keeps, per output file, the header, the row count, the exact
text of label columns and the numbers of value columns, recorded at the
commit that defined the benchmark.  Numbers match when
``|x - ref| <= RTOL * |ref| + ATOL``: loose enough that a last-digit change
in a kernel passes, tight enough that any real change of a result fails.

Columns that measure accuracy (identity error, residual, winding number)
are not compared with the reference, because a fix that makes the program
more accurate changes them.  They are checked against the gates instead:
they must agree with the rest of the output and with the exit code, which
must be the one the gates in ``discinterp.harness`` give.  A scenario whose
reference exit code is 0 must still exit 0.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os

import numpy as np

RTOL = 1e-7
ATOL = 1e-12

# the gates of discinterp.harness, copied so that loosening them there shows here
IDENTITY_TOL = 1e-8
RESIDUAL_TOL = 1e-6
WINDING_TOL = 1e-3
UPPER_SLACK = 1e-12

# per file: columns compared as text; the accuracy columns checked by gate
LABEL_COLUMNS = {"k", "n", "condition", "witness"}
GATE_COLUMNS = {
    "identity.csv": {"f_re", "f_im", "rel_err"},
    "residual.csv": {"residual"},
    "zeros.csv": {"winding"},
}
GATE_CONSTANTS = {"max_identity_error", "max_residual", "max_winding_defect"}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "references.json.gz")


def read_outputs(out_dir: str) -> dict:
    """{file name: rows (lists of str)} for every CSV, plus parsed constants."""
    files = {}
    constants = None
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            if name.endswith(".csv"):
                with open(path, newline="", encoding="utf-8") as fh:
                    files[name] = list(csv.reader(fh))
            elif name == "constants.json":
                with open(path, encoding="utf-8") as fh:
                    constants = json.load(fh)
    return {"files": files, "constants": constants}


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def record(out_dir: str, exit_code: int) -> dict:
    """The reference entry for one scenario run."""
    outputs = read_outputs(out_dir)
    files = {}
    for name, rows in outputs["files"].items():
        header, body = rows[0], rows[1:]
        gate = GATE_COLUMNS.get(name, set())
        columns = {}
        for j, col in enumerate(header):
            if col in gate:
                continue
            cells = [row[j] for row in body]
            if col in LABEL_COLUMNS:
                columns[col] = cells
            else:
                columns[col] = [float(format(float(c), ".12g")) if _number(c) is not None
                                else c for c in cells]
        files[name] = {"header": header, "rows": len(body), "columns": columns}
    constants = {k: v for k, v in (outputs["constants"] or {}).items()
                 if k not in GATE_CONSTANTS}
    return {"exit": exit_code, "files": files, "constants": constants}


def _close(x, ref) -> bool:
    if isinstance(ref, bool) or isinstance(x, bool):
        return x is ref
    if isinstance(ref, str) or isinstance(x, str):
        nx, nr = _number(x), _number(ref)
        if nx is None or nr is None:
            return str(x) == str(ref)
        x, ref = nx, nr
    if math.isnan(ref) or math.isinf(ref):
        return math.isnan(ref) and math.isnan(x) or x == ref
    return abs(x - ref) <= RTOL * abs(ref) + ATOL


def _column(rows, name) -> np.ndarray:
    j = rows[0].index(name)
    return np.array([float(row[j]) for row in rows[1:]])


def gate_exit(task: str, outputs: dict) -> tuple:
    """(exit code the harness gates give for these outputs, list of problems)."""
    files, const = outputs["files"], outputs["constants"] or {}
    problems = []
    if task in ("interpolate", "growth-curve"):
        rows = files["identity.csv"]
        b = _column(rows, "b_re") + 1j * _column(rows, "b_im")
        f = _column(rows, "f_re") + 1j * _column(rows, "f_im")
        err = _column(rows, "rel_err")
        with np.errstate(invalid="ignore"):
            again = np.abs(f - b) / (1.0 + np.abs(b))
        if not np.allclose(again, err, rtol=1e-9, atol=1e-300, equal_nan=True):
            problems.append("identity.csv: rel_err disagrees with |f - b| / (1 + |b|)")
        max_err = float(err.max()) if err.size else 0.0
        if not _close(const.get("max_identity_error"), max_err):
            problems.append("constants: max_identity_error is not the largest rel_err")
        if not np.all(np.isfinite(err)):
            return 4, problems
        return (3 if max_err >= IDENTITY_TOL else 0), problems
    if task == "oscillate":
        res = _column(files["residual.csv"], "residual")
        wind = _column(files["zeros.csv"], "winding")
        defect = float(np.max(np.abs(wind - 1.0))) if wind.size else 0.0
        if not _close(const.get("max_residual"), float(res.max())):
            problems.append("constants: max_residual is not the largest residual")
        if not _close(const.get("max_winding_defect"), defect):
            problems.append("constants: max_winding_defect disagrees with zeros.csv")
        if not np.all(np.isfinite(res)):
            return 4, problems
        if res.max() >= RESIDUAL_TOL or defect > WINDING_TOL:
            return 3, problems
        return 0, problems
    if task == "check":
        upper_ok = const["comparison_pointwise_max"] <= 1.0 + UPPER_SLACK
        if not (const["comparison_lower_ok"] and upper_ok and const["sandwich_ok"]
                and const["tsuji_ok"]):
            return 3, problems
        if not all(math.isfinite(const[k]) for k in ("concentration", "korenblum_sum")):
            return 4, problems
        return 0, problems
    return 0, problems


def verify(task: str, out_dir: str, exit_code: int, printed: str, ref: dict) -> list:
    """Problems found in one scenario run; an empty list means it verified."""
    problems = []
    if f"exit {exit_code}" not in printed:
        problems.append(f"printed summary does not report exit {exit_code}")
    if ref is None:
        return problems + ["no reference recorded for this scenario"]
    outputs = read_outputs(out_dir)
    if set(outputs["files"]) != set(ref["files"]) or outputs["constants"] is None:
        found = sorted(outputs["files"])
        return problems + [f"output files {found} differ from {sorted(ref['files'])}"]
    if ref["exit"] == 0 and exit_code != 0:
        problems.append(f"exit {exit_code}, reference exit 0")
    for name, want in ref["files"].items():
        rows = outputs["files"][name]
        if rows[0] != want["header"] or len(rows) - 1 != want["rows"]:
            problems.append(f"{name}: header or row count differs")
            continue
        for col, cells in want["columns"].items():
            j = rows[0].index(col)
            exact = col in LABEL_COLUMNS
            for i, expect in enumerate(cells):
                got = rows[i + 1][j]
                if got != expect if exact else not _close(got, expect):
                    problems.append(f"{name}: {col} row {i}: {got} != {expect}")
                    break
    for key, expect in ref["constants"].items():
        if key not in outputs["constants"] or not _close(outputs["constants"][key], expect):
            problems.append(f"constants: {key} = {outputs['constants'].get(key)} != {expect}")
    try:
        expected, gate_problems = gate_exit(task, outputs)
    except (KeyError, ValueError, IndexError) as exc:
        return problems + [f"outputs cannot be read for the gate check: {exc!r}"]
    problems += gate_problems
    if expected != exit_code:
        problems.append(f"exit {exit_code}, but the gates give {expected}")
    return problems


def load_references() -> dict:
    with gzip.open(REFERENCE_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_references(refs: dict) -> None:
    # mtime=0 keeps the file byte-identical when the references do not change
    with open(REFERENCE_PATH, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(refs, sort_keys=True, separators=(",", ":")).encode("utf-8"))
