"""Command line interface.

``lyapunov --oracle`` runs the Jacobian oracle on the window the printed
``lambda`` averages and prints the difference between the two.

Exit codes: 0 success; 2 configuration, geometry or usage errors;
3 no-eclipse certification failure; 4 orbit solver failures (including
shadowing and grazing); 5 filesystem errors; 6 an experiment ran to the
end and its check failed (``sweep``: the continuity modulus is violated
or an orbit was lost; ``derivative``: the differentiability check
failed), with the summary printed and the outputs written as usual.
Any other exception is an internal error: it propagates with its
traceback (Python exits 1).
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import ConfigError, LabConfig, load_config, parse_word
from .dynamics import GrazingError
from .experiments import (analyze_orbit, emit_outputs, run_check,
                          run_derivative, run_sweep, solve_word,
                          write_bounds_csv)
from .geometry import EclipseError, GeometryError, table_bounds
from .lyapunov import jacobian_lyapunov_oracle, seed_sensitivity
from .symbolic import ShadowingError, SolveError


def _resolve_word(cfg: LabConfig, text: str):
    """A configured identifier, otherwise the word spec ``text`` with the
    config's seed."""
    for ident, word in cfg.words:
        if ident == text:
            return ident, word
    return parse_word(text, cfg.family.z0, cfg.seed)


def _print_bounds(tb) -> None:
    print(f"alpha={tb.alpha:.6g}  d=[{tb.d_min:.9g}, {tb.d_max:.9g}]  "
          f"kappa=[{tb.kappa_min:.9g}, {tb.kappa_max:.9g}]  "
          f"phi_max={tb.phi_max:.9g}")
    print(f"  front curvature k=[{tb.k_min:.9g}, {tb.k_max:.9g}]  "
          f"per-flight bracket=[{tb.lower:.9g}, {tb.upper:.9g}]")


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    rows = run_check(cfg)
    outdir = args.out or cfg.output_dir
    from pathlib import Path

    Path(outdir).mkdir(parents=True, exist_ok=True)
    write_bounds_csv(Path(outdir) / "bounds.csv", rows)
    print(f"table admissible: {cfg.family.z0} obstacles, mode "
          f"{cfg.family.mode}, alpha in [0, {cfg.family.alpha_max:g}]")
    certified = ("no-eclipse" if cfg.family.mode == "general"
                 else "pair separation")
    print(f"{certified} certified on {len(rows)} grid points")
    first, last = rows[0], rows[-1]
    for r, tag in ((first, "first"), (last, "last")):
        print(f"{tag}: alpha={r.alpha:.6g} d=[{r.d_min:.9g}, {r.d_max:.9g}] "
              f"kappa=[{r.kappa_min:.9g}, {r.kappa_max:.9g}] "
              f"phi_max={r.phi_max:.9g} bracket=[{r.lower:.9g}, {r.upper:.9g}]")
    print(f"bounds written to {Path(outdir) / 'bounds.csv'}")
    return 0


def cmd_orbit(args) -> int:
    cfg = load_config(args.config)
    ident, word = _resolve_word(cfg, args.word)
    orbit = solve_word(cfg, word, args.alpha)
    print(f"word {ident} ({orbit.kind}), alpha={args.alpha:g}, "
          f"{len(orbit.records)} reflections, residual {orbit.residual:.3e}")
    if orbit.kind == "segment":
        print(f"truncation bound {orbit.shadow_gap:.3e} at padding "
              f"{orbit.core_start}")
    print(f"{'j':>4} {'obst':>4} {'u':>18} {'x':>18} {'y':>18} "
          f"{'flight':>18} {'phi':>12} {'kappa':>12}")
    r = orbit.records
    for j, (i, u, (x, y), d, phi, kappa) in enumerate(zip(
            r.obstacle.tolist(), r.u.tolist(), r.point.tolist(),
            r.d.tolist(), r.phi.tolist(), r.kappa.tolist())):
        print(f"{j:>4} {i:>4} {u:>18.12f} {x:>18.12f} {y:>18.12f} "
              f"{d:>18.12f} {phi:>12.8f} {kappa:>12.8f}")
    return 0


def cmd_lyapunov(args) -> int:
    cfg = load_config(args.config)
    ident, word = _resolve_word(cfg, args.word)
    orbit = solve_word(cfg, word, args.alpha)
    tb = table_bounds(cfg.family, args.alpha, phi_max_override=cfg.phi_max)
    res = analyze_orbit(cfg, orbit, bounds=tb)
    rep = res["report"]
    print(f"word {ident} ({orbit.kind}), alpha={args.alpha:g}")
    _print_bounds(tb)
    print(f"lambda = {rep.lambda_m:.12g}   (mean of {rep.m} flights, "
          f"burn-in {res['burn_in']})")
    print(f"exact d lambda / d alpha = {res['F_m']:.12g}")
    sens = seed_sensitivity(orbit, burn_in=res["burn_in"])
    print(f"seed sensitivity {sens:.3e}, orbit residual "
          f"{orbit.residual:.3e}, chain condition {res['derivs'].cond:.3e}")
    inside = rep.lower - 1e-12 <= rep.lambda_m <= rep.upper + 1e-12
    print(f"estimate within a priori bracket: {'yes' if inside else 'NO'}")
    if args.oracle:
        lam_o = jacobian_lyapunov_oracle(word, cfg.family, args.alpha,
                                         h=cfg.h_fd, orbit=orbit,
                                         burn_in=res["burn_in"])
        print(f"independent Jacobian oracle: {lam_o:.12g}  (same window "
              f"as lambda, difference {abs(lam_o - rep.lambda_m):.3e})")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    result = run_sweep(cfg)
    paths = emit_outputs(args.out or cfg.output_dir, result)
    s = result.summary
    print(f"swept {len(cfg.words)} words over {len(cfg.alpha_grid)} grid "
          f"points: {len(result.rows)} rows")
    print(f"continuity rate C0 (Cd k_max + Ck d_max) = {s['modulus_rate']:.6g} "
          f"(C0={s['c0']:.6g}, Cd={s['cd_obs']:.6g}, Ck={s['ck_obs']:.6g})")
    for ident, ws in sorted(s["words"].items()):
        if ws.get("solved", 0) == 0:
            print(f"  {ident}: NO orbit solved")
            continue
        print(f"  {ident}: {ws['solved']} points, lambda(start) = "
              f"{ws['lambda_at_start']:.9g}, continuity defect "
              f"{ws['max_continuity_defect']:.3e} "
              f"({'ok' if ws['continuity_ok'] else 'VIOLATED'})")
    if result.failures:
        print(f"{len(result.failures)} orbit losses (rows omitted):")
        for ident, alpha, msg in result.failures[:10]:
            print(f"  {ident} at alpha={alpha:g}: {msg}")
    if not s["continuity_ok"]:
        print("WARNING: continuity modulus violated; inspect the sweep")
    print("wrote " + ", ".join(str(p) for p in paths))
    return 0 if s["continuity_ok"] and not result.failures else 6


def cmd_derivative(args) -> int:
    cfg = load_config(args.config)
    ident, word = _resolve_word(cfg, args.word)
    rows, summary = run_derivative(cfg, word)
    print(f"word {ident}: exact derivative at 0 is {summary['F0']:.12g}")
    print(f"{'alpha':>14} {'lambda':>18} {'F':>18} {'secant slope':>18} "
          f"{'defect':>12}")
    for r in rows:
        print(f"{r.alpha:>14.6g} {r.lambda_m:>18.12f} {r.F_m:>18.12f} "
              f"{r.slope_from_zero:>18.12f} {r.defect:>12.3e}")
    print(f"fitted defect constant K = {summary['k_fit']:.6g} "
          f"(observed C2 = {summary['c2_obs']:.6g})")
    if math.isnan(summary["decay_rate"]):
        print("defect at rounding level on all probes")
    else:
        print(f"defect decay rate (log-log) = {summary['decay_rate']:.3f} "
              "(linear shrinkage expects >= 0.9)")
    print("differentiability check "
          + ("passed" if summary["ok"] else "FAILED"))
    return 0 if summary["ok"] else 6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiard-lab",
        description="Open planar billiards: no-eclipse tables, symbolic "
                    "orbits, Lyapunov exponents along deformations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, word=False, alpha=False, out=False):
        p.add_argument("--config", required=True, help="table configuration")
        if word:
            p.add_argument("--word", required=True,
                           help="configured word id, literal word like '1,2' "
                                "or 'open:1,2,1', or 'sample:LENGTH[:SEED]' "
                                "(LENGTH >= 1, SEED defaults to the config's "
                                "seed)")
        if alpha:
            p.add_argument("--alpha", type=float, default=0.0,
                           help="deformation parameter (default 0)")
        if out:
            p.add_argument("--out", default=None,
                           help="output directory (default from config)")

    p = sub.add_parser("check", help="certify the table and write bounds.csv")
    common(p, out=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orbit", help="solve one orbit and print it")
    common(p, word=True, alpha=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("lyapunov", help="exponent estimate for one word")
    common(p, word=True, alpha=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the finite-difference Jacobian oracle on "
                        "the estimate's window")
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("sweep", help="full alpha sweep; writes sweep.csv, "
                                     "bounds.csv, plot.gp")
    common(p, out=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("derivative", help="differentiability probe for one word")
    common(p, word=True)
    p.set_defaults(func=cmd_derivative)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EclipseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SolveError, ShadowingError, GrazingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
