"""Experiment drivers over a configured table.

The sweep follows its words along the alpha grid in one
``symbolic.walk``, which says how the grid is chunked, seeded and
retried.  A chunk is one ``symbolic.find_orbits`` call and one
``symbolic.alpha_derivatives`` call on one multi-row table snapshot,
and each row is the one a word-at-a-time sweep (``solve_word`` then
``analyze_orbit``) that seeds and retries the same way gives.  Table
bounds come from one ``geometry.table_bounds`` call over the whole grid
(``run_check``), whose phi_max observer walks its corpus the same way.
Emitted CSVs are fully deterministic: fixed column order, fixed float
format, no timestamps.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, LabConfig
from .geometry import GeometryError, TableBounds, table_bounds
from .lyapunov import f_derivative_sum, kdot_trace, lyapunov_estimate
from .symbolic import (BilliardOrbit, SolveError, Word, _value,
                       alpha_derivatives, find_orbit_segment, find_orbits,
                       find_periodic_orbit, orbit_alpha_derivatives, walk)

_FLOAT_FMT = "%.12e"


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    word_id: str
    m: int
    lambda_m: float
    F_m: float
    fd_slope: float
    lower: float
    upper: float
    max_udot: float
    max_kdot: float
    residual: float
    cond: float


def _columns(row_type) -> list:
    """CSV columns of a row type: its fields, in declaration order."""
    return [f.name for f in dataclasses.fields(row_type)]


SWEEP_HEADER = ",".join(_columns(SweepRow))
BOUNDS_HEADER = ",".join(_columns(TableBounds))


@dataclass
class SweepResult:
    rows: list
    bounds: list
    summary: dict
    failures: list = field(default_factory=list)


def solve_word(cfg: LabConfig, word: Word, alpha: float, init=None):
    if word.cyclic:
        return find_periodic_orbit(word, cfg.family, alpha, init=init,
                                   tol=cfg.tol_orbit)
    return find_orbit_segment(word, cfg.family, alpha, padding=cfg.padding,
                              init=init, tol=cfg.tol_orbit)


def effective_burn_in(orbit, cfg: LabConfig) -> int:
    """Configured burn-in, clipped so at least one flight remains."""
    if orbit.kind == "periodic":
        return 0
    return min(cfg.burn_in, len(orbit.records) - 1)


def analyze_orbit(cfg: LabConfig, orbit, bounds: Optional[TableBounds] = None):
    """Estimate, derivatives and diagnostics for one solved orbit."""
    return _analysis(cfg, orbit, functools.partial(
        orbit_alpha_derivatives, orbit, cfg.family), bounds)


def _analysis(cfg, orbit, derivatives, bounds=None):
    """``analyze_orbit`` with the orbit's AlphaDerivatives read from
    ``derivatives()``, called after the estimate."""
    burn = effective_burn_in(orbit, cfg)
    report = lyapunov_estimate(orbit, burn_in=burn, bounds=bounds)
    derivs = derivatives()
    # the estimate ran with the default seed and window, so its trace
    # covers every record, as kdot_trace needs
    trace = report.trace
    kdot = kdot_trace(orbit, derivs, trace)
    F_m, f_dot = f_derivative_sum(orbit, derivs, trace, kdot, burn_in=burn)
    return {"report": report, "derivs": derivs, "trace": trace, "kdot": kdot,
            "F_m": F_m, "f_dot": f_dot, "burn_in": burn}


def _require_smoothness(cfg, need, what):
    r, rp = cfg.family.smoothness
    if r < need[0] or rp < need[1]:
        raise ConfigError(
            f"{what} requires declared smoothness at least C^{need}, "
            f"table declares C^({r},{rp})")


def run_sweep(cfg: LabConfig) -> SweepResult:
    """Exponent, exact derivative and diagnostics for every configured
    word across the alpha grid, plus the per-alpha table bounds of
    ``run_check``.

    The words follow the grid in one ``symbolic.walk``; rows, failures
    (word-major) and summaries are those of a word-at-a-time sweep that
    seeds and retries each word as the walk does.  An analysis error is
    raised as that sweep would raise it: the first failing alpha of the
    lowest failing word; the chunks after it analyse only the words
    before that word.
    """
    _require_smoothness(cfg, (4, 2), "the sweep's derivative columns")
    bounds = run_check(cfg)

    words = [word for _, word in cfg.words]
    word_rows = [{} for _ in words]
    word_failures = [[] for _ in words]
    fatal = {}                      # word index -> its first analysis error
    cd_obs = 0.0
    ck_obs = 0.0

    def solve(batch, alphas, inits):
        orbits = find_orbits(batch, cfg.family, alphas, inits,
                             padding=cfg.padding, tol=cfg.tol_orbit)
        return [(np.asarray(o.chain_us) if isinstance(o, BilliardOrbit)
                 else None, o) for o in orbits]

    for lo, rows in walk(solve, words, [b.alpha for b in bounds],
                         cfg.padding):
        # a word-at-a-time sweep never reaches the words after a raise
        live = min(fatal, default=len(words))
        if not live:
            break
        batch = [(lo + k // len(words), k % len(words), orbit)
                 for k, (_, orbit) in enumerate(rows)
                 if k % len(words) < live]
        derivs = iter(alpha_derivatives(
            [o for _, _, o in batch if isinstance(o, BilliardOrbit)],
            cfg.family))
        for gi, i, orbit in batch:
            b = bounds[gi]
            ident = cfg.words[i][0]
            if not isinstance(orbit, BilliardOrbit):
                word_failures[i].append((ident, b.alpha, str(orbit)))
                continue
            try:
                res = _analysis(cfg, orbit,
                                functools.partial(_value, next(derivs)))
            except (SolveError, GeometryError) as exc:
                fatal.setdefault(i, exc)
                continue
            derivs_i = res["derivs"]
            cd_obs = max(cd_obs, float(np.abs(derivs_i.d_dot).max()))
            ck_obs = max(ck_obs, float(np.abs(res["kdot"].k_dot).max()))
            word_rows[i][gi] = SweepRow(
                b.alpha, ident, res["report"].m, res["report"].lambda_m,
                res["F_m"], math.nan, b.lower, b.upper,
                float(np.abs(derivs_i.u_dot).max()),
                float(np.abs(res["kdot"].k_dot).max()),
                orbit.residual, derivs_i.cond)
    if fatal:
        raise fatal[min(fatal)]

    all_rows = []
    failures = []
    per_word = {}
    for (ident, _), rows, fails in zip(cfg.words, word_rows, word_failures):
        failures.extend(fails)
        # central slope across surviving neighbours; analytic value at ends
        for gi, row in sorted(rows.items()):
            prev_row = rows.get(gi - 1)
            next_row = rows.get(gi + 1)
            if prev_row is not None and next_row is not None:
                slope = (next_row.lambda_m - prev_row.lambda_m) \
                    / (next_row.alpha - prev_row.alpha)
            else:
                slope = row.F_m
            all_rows.append(dataclasses.replace(row, fd_slope=slope))
        per_word[ident] = rows

    all_rows.sort(key=lambda r: (r.word_id, r.alpha))

    d_min_min = min(b.d_min for b in bounds)
    k_min_min = min(b.k_min for b in bounds)
    d_max_max = max(b.d_max for b in bounds)
    k_max_max = max(b.k_max for b in bounds)
    c0 = 1.0 / (1.0 + d_min_min * k_min_min)
    modulus_rate = c0 * (cd_obs * k_max_max + ck_obs * d_max_max)

    word_summaries = {}
    continuity_ok = True
    for ident, rows in per_word.items():
        if not rows:
            word_summaries[ident] = {"solved": 0}
            continuity_ok = False
            continue
        base_gi = min(rows)
        lam0 = rows[base_gi].lambda_m
        alpha0 = rows[base_gi].alpha
        defect = -math.inf
        for gi, row in rows.items():
            if gi == base_gi:
                continue
            allowed = modulus_rate * (row.alpha - alpha0)
            defect = max(defect, abs(row.lambda_m - lam0) - allowed)
        ok = defect <= 1e-10 if len(rows) > 1 else True
        continuity_ok = continuity_ok and ok
        word_summaries[ident] = {
            "solved": len(rows), "lambda_at_start": lam0,
            "max_continuity_defect": defect if len(rows) > 1 else 0.0,
            "continuity_ok": ok}

    summary = {"c0": c0, "cd_obs": cd_obs, "ck_obs": ck_obs,
               "modulus_rate": modulus_rate, "words": word_summaries,
               "continuity_ok": continuity_ok,
               "n_failures": len(failures)}
    return SweepResult(all_rows, bounds, summary, failures)


@dataclass(frozen=True)
class DerivativeRow:
    alpha: float
    lambda_m: float
    F_m: float
    slope_from_zero: float
    defect: float


_PROBE_FRACTIONS = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)


def run_derivative(cfg: LabConfig, word: Word):
    """Differentiability probe for one word: compare secant slopes
    (lambda(a) - lambda(0))/a against the exact derivative at 0.

    The defect must shrink linearly in the probe size; the report
    carries the observed second-order constant from divided differences
    and the log-log decay rate of the defect.
    """
    _require_smoothness(cfg, (5, 3), "the differentiability report")
    b = cfg.family.alpha_max
    probes = [0.0] + [f * b for f in _PROBE_FRACTIONS]

    lams = {}
    fs = {}
    init = None
    for a in probes:
        orbit = solve_word(cfg, word, a, init=init)
        init = np.asarray(orbit.chain_us)
        res = analyze_orbit(cfg, orbit)
        lams[a] = res["report"].lambda_m
        fs[a] = res["F_m"]

    f0 = fs[0.0]
    rows = [DerivativeRow(0.0, lams[0.0], f0, f0, 0.0)]
    for a in probes[1:]:
        slope = (lams[a] - lams[0.0]) / a
        rows.append(DerivativeRow(a, lams[a], fs[a], slope, abs(slope - f0)))

    # observed second-order constant: twice the largest divided difference
    c2_obs = 0.0
    for a, bb, c in zip(probes, probes[1:], probes[2:]):
        d1 = (lams[bb] - lams[a]) / (bb - a)
        d2 = (lams[c] - lams[bb]) / (c - bb)
        c2_obs = max(c2_obs, abs(2.0 * (d2 - d1) / (c - a)))

    fit_pts = [(math.log(r.alpha), math.log(r.defect))
               for r in rows[1:] if r.defect > 1e-14]
    if len(fit_pts) >= 2:
        xs = np.array([p[0] for p in fit_pts])
        ys = np.array([p[1] for p in fit_pts])
        decay_rate = float(np.polyfit(xs, ys, 1)[0])
    else:
        decay_rate = math.nan   # defects at rounding level: better than linear

    # fitted linear-defect constant: smallest K with defect <= K alpha
    k_fit = max(r.defect / r.alpha for r in rows[1:])
    ok = (math.isnan(decay_rate) or decay_rate >= 0.9) and math.isfinite(k_fit)
    summary = {"F0": f0, "c2_obs": c2_obs, "k_fit": k_fit,
               "decay_rate": decay_rate, "ok": ok,
               "rows": rows}
    return rows, summary


def run_check(cfg: LabConfig):
    """Table bounds and certificates at every grid alpha, from one
    ``table_bounds`` call over the grid, whose collision-angle observer
    walks the grid as the sweep does (validation already ran at load
    time; this recomputes and reports)."""
    return table_bounds(cfg.family, [float(a) for a in cfg.alpha_grid],
                        cfg.phi_max)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FLOAT_FMT % float(value)


def _write_csv(path, row_type, rows) -> None:
    names = _columns(row_type)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([_fmt(getattr(r, n)) for n in names] for r in rows)


def write_sweep_csv(path, rows) -> None:
    _write_csv(path, SweepRow, rows)


def write_bounds_csv(path, rows) -> None:
    _write_csv(path, TableBounds, rows)


def write_plot_script(path, result: SweepResult) -> None:
    """Self-contained gnuplot script next to the CSVs.  The dashed line is
    the tangent of the first word's exponent at its first row's alpha a0."""
    idents = sorted({r.word_id for r in result.rows})
    first = idents[0] if idents else ""
    a0 = lam0 = f0 = 0.0
    for r in result.rows:
        if r.word_id == first:
            a0, lam0, f0 = r.alpha, r.lambda_m, r.F_m
            break
    lines = [
        "# render with: gnuplot plot.gp  (expects sweep.csv and bounds.csv "
        "in the working directory)",
        "set datafile separator ','",
        "set terminal pngcairo size 1100,700 enhanced",
        "set output 'sweep.png'",
        "set xlabel 'alpha'",
        "set ylabel 'per-flight exponent'",
        "set key outside right",
        f"words = '{ ' '.join(idents) }'",
        f"a0 = {_FLOAT_FMT % a0}",
        f"lam0 = {_FLOAT_FMT % lam0}",
        f"f0 = {_FLOAT_FMT % f0}",
        "plot 'bounds.csv' skip 1 using 1:9:10 with filledcurves "
        "fc rgb '#d8d8d8' title 'a priori bracket', \\",
        "     for [w in words] 'sweep.csv' skip 1 "
        "using 1:(strcol(2) eq w ? column(4) : 1/0) "
        "with linespoints pt 6 ps 0.4 title w, \\",
        "     lam0 + f0*(x - a0) with lines dashtype 2 lc rgb 'black' "
        f"title 'tangent at {a0:g}'",
        "",
    ]
    Path(path).write_text("\n".join(lines))


def emit_outputs(outdir, result: SweepResult) -> list:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out / "sweep.csv", result.rows)
    write_bounds_csv(out / "bounds.csv", result.bounds)
    write_plot_script(out / "plot.gp", result)
    return [out / "sweep.csv", out / "bounds.csv", out / "plot.gp"]
