"""Correctness checks on the program's outputs.

Every check returns a list of failure messages; an empty list means the
output passed.  The reference values for the default seed live in
``reference.json`` next to this file and are compared within REF_TOL.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

BRACKET_SLACK = 1e-12
CLOSED_FORM_TOL = 1e-9
ORACLE_TOL = 1e-5
# lambda_m and F_m of the default seed may move by rounding when a later
# change reorders arithmetic (e.g. a banded solve); anything larger is a
# change of results.
REF_TOL = 1e-8

# Period-2 orbit between two unit circles whose boundaries are 4 apart
# (the breathe table at alpha = 0): lambda = log(1 + d + sqrt(d^2 + 2d)).
BREATHE_12_AT_ZERO = math.log(5.0 + 2.0 * math.sqrt(6.0))

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def check_sweep_rows(rows, tol_orbit: float):
    """Bracket membership and solver residual of every sweep row."""
    bad = []
    for r in rows:
        where = f"{r.word_id} at alpha={r.alpha:.6g}"
        if not (r.lower - BRACKET_SLACK <= r.lambda_m
                <= r.upper + BRACKET_SLACK):
            bad.append(f"{where}: lambda {r.lambda_m!r} outside "
                       f"[{r.lower!r}, {r.upper!r}]")
        if not r.residual <= tol_orbit:
            bad.append(f"{where}: residual {r.residual:.3e} > {tol_orbit:.1e}")
    return bad


def check_continuity(summary):
    if summary.get("continuity_ok"):
        return []
    failing = sorted(w for w, s in summary["words"].items()
                     if not s.get("continuity_ok"))
    return [f"continuity check failed for words {failing}"]


def check_breathe_closed_form(rows):
    """Word 1-2 at alpha = 0 on the breathe table has a closed form."""
    hits = [r for r in rows if r.word_id == "1-2" and r.alpha == 0.0]
    if not hits:
        return ["no row for word 1-2 at alpha = 0"]
    err = abs(hits[0].lambda_m - BREATHE_12_AT_ZERO)
    if not err <= CLOSED_FORM_TOL:
        return [f"word 1-2 at alpha = 0: lambda {hits[0].lambda_m!r} differs "
                f"from log(5+2*sqrt(6)) by {err:.3e}"]
    return []


def check_query(out):
    """Oracle agreement and bracket membership of one cold query."""
    where = f"query {out.index} ({out.table}, alpha={out.alpha:.6g})"
    if out.error:
        return [f"{where}: {out.error}"]
    bad = []
    diff = abs(out.oracle - out.recursion)
    if not diff < ORACLE_TOL:
        bad.append(f"{where}: oracle and recursion differ by {diff:.3e}")
    if not (out.lower - BRACKET_SLACK <= out.lambda_m
            <= out.upper + BRACKET_SLACK):
        bad.append(f"{where}: lambda {out.lambda_m!r} outside "
                   f"[{out.lower!r}, {out.upper!r}]")
    return bad


def sweep_values(rows) -> dict:
    """Reference-comparable values of a sweep: lambda_m and F_m per row.

    The bound columns are left out: phi_max may legitimately change."""
    return {f"{r.word_id}@{r.alpha:.12e}": [r.lambda_m, r.F_m] for r in rows}


def query_values(outcomes) -> dict:
    return {f"{o.index}:{o.word_id}@{o.alpha:.12e}": [o.lambda_m, o.F_m]
            for o in outcomes}


def load_reference_file(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_for(workload: str, seed: int, sizes: dict,
                  path=REFERENCE_PATH):
    """Stored values for this workload, or None unless the seed and the
    sizes are the ones the reference was made with."""
    entry = load_reference_file(path).get(workload)
    if entry is None or entry["seed"] != seed or entry["sizes"] != sizes:
        return None
    return entry["values"]


def check_reference(values: dict, expected: dict):
    """Every (lambda_m, F_m) pair equals the stored one within REF_TOL."""
    bad = []
    missing = sorted(expected.keys() - values.keys())
    extra = sorted(values.keys() - expected.keys())
    if missing:
        bad.append(f"reference rows missing from the output: {missing[:5]}")
    if extra:
        bad.append(f"output rows absent from the reference: {extra[:5]}")
    for key in sorted(expected.keys() & values.keys()):
        for name, got, want in zip(("lambda_m", "F_m"), values[key],
                                   expected[key]):
            if not abs(got - want) <= REF_TOL * max(1.0, abs(want)):
                bad.append(f"{key}: {name} {got!r} differs from reference "
                           f"{want!r}")
    return bad
