"""Recompute every closed-form constant used by the test suite with sympy
and compare against the library.  Exits nonzero on any mismatch so the
frozen literals in tests/ stay auditable."""

import argparse
import math
import sys

import sympy as sp

from billiard_lab import (DeformationFamily, ObstacleSpec, Word,
                          boundary_pair_extremes, check_no_eclipse, circle,
                          ellipse, curvature, find_periodic_orbit,
                          f_derivative_sum, kdot_trace, lyapunov_estimate,
                          orbit_alpha_derivatives,
                          periodic_curvature_fixed_point)

CHECKS = []


def check(name, exact, got, tol=1e-9):
    CHECKS.append((name, float(exact), float(got), abs(float(exact) - float(got)), tol))


def two_circle_family():
    return DeformationFamily(
        (circle(0.0, 0.0, 1.0), circle(4.0, 0.0, 1.0)), 0.5, mode="period2")


def two_circle_translate_family():
    moving = ObstacleSpec(kind="circle", center_x=(4.0, 1.0),
                          center_y=(0.0,), radius=(1.0,), rotation=(0.0,))
    return DeformationFamily((circle(0.0, 0.0, 1.0), moving), 0.5,
                             mode="period2")


def three_circle_family():
    side = 6.0
    return DeformationFamily(
        (circle(0.0, 0.0, 1.0), circle(side, 0.0, 1.0),
         circle(side / 2.0, side * math.sqrt(3.0) / 2.0, 1.0)),
        0.4, mode="general")


def closed_form_two_circle():
    # bouncing between two unit circles with centers 4 apart: the gap is 2,
    # each reflection is head on, and the curvature fixed point solves
    # k = k / (1 + d k) + 2
    d = sp.Integer(2)
    k = sp.symbols("k", positive=True)
    kstar = sp.solve(sp.Eq(k, k / (1 + d * k) + 2), k)[0]
    lam = sp.log(1 + d * kstar)

    fam = two_circle_family()
    orb = find_periodic_orbit(Word((1, 2)), fam, 0.0)
    rep = lyapunov_estimate(orb)
    tr = periodic_curvature_fixed_point(orb)
    check("two-circle lambda", sp.N(lam, 30), rep.lambda_m)
    check("two-circle lambda literal", sp.N(sp.log(3 + 2 * sp.sqrt(2)), 30),
          rep.lambda_m)
    check("two-circle k fixed point", sp.N(kstar, 30), tr.k[0])
    check("two-circle k literal", sp.N(1 + sp.sqrt(2), 30), tr.k[0])


def closed_form_two_circle_translate():
    # centers (0,0) and (4+a,0): gap d(a) = 2+a, fixed point
    # k(a) = 1 + sqrt(1+2/d), lambda(a) = log(1 + d k)
    a = sp.symbols("a", nonnegative=True)
    d = 2 + a
    kstar = 1 + sp.sqrt(1 + 2 / d)
    lam = sp.log(1 + d * kstar)
    F = sp.diff(lam, a).subs(a, 0)
    kdot = sp.diff(kstar, a).subs(a, 0)

    fam = two_circle_translate_family()
    orb = find_periodic_orbit(Word((1, 2)), fam, 0.0)
    tr = periodic_curvature_fixed_point(orb)
    derivs = orbit_alpha_derivatives(orb, fam)
    kd = kdot_trace(orb, derivs, tr)
    Fm, _ = f_derivative_sum(orb, derivs, tr, kd)
    check("translate F", sp.N(F, 30), Fm)
    check("translate F literal", sp.N(sp.sqrt(2) / 4, 30), Fm)
    check("translate k_dot", sp.N(kdot, 30), kd.k_dot[0])
    check("translate k_dot literal", sp.N(-sp.sqrt(2) / 8, 30), kd.k_dot[0])


def closed_form_three_circle_pair():
    # opposite pair on the side-6 equilateral table: gap 4, head on
    d = sp.Integer(4)
    k = sp.symbols("k", positive=True)
    kstar = sp.solve(sp.Eq(k, k / (1 + d * k) + 2), k)[0]
    lam = sp.log(1 + d * kstar)

    fam = three_circle_family()
    rep = lyapunov_estimate(find_periodic_orbit(Word((1, 2)), fam, 0.0))
    check("pair lambda", sp.N(lam, 30), rep.lambda_m)
    check("pair lambda literal", sp.N(sp.log(5 + 2 * sp.sqrt(6)), 30),
          rep.lambda_m)


def closed_form_triangle():
    # the (1,2,3) orbit on the side-6 equilateral table is the symmetric
    # triangle: verify the length gradient vanishes there, then read off
    # flight length, collision angle and the curvature fixed point
    s3 = sp.sqrt(3)
    centers = [(0, 0), (6, 0), (3, 3 * s3)]
    centroid = (3, s3)
    u1, u2, u3 = sp.symbols("u1 u2 u3", real=True)
    pts = []
    for (cx, cy), ui in zip(centers, (u1, u2, u3)):
        base = sp.atan2(centroid[1] - cy, centroid[0] - cx)
        pts.append((cx + sp.cos(base + ui), cy + sp.sin(base + ui)))

    def dist(p, q):
        return sp.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)

    L = dist(pts[0], pts[1]) + dist(pts[1], pts[2]) + dist(pts[2], pts[0])
    for ui in (u1, u2, u3):
        g = sp.diff(L, ui).subs({u1: 0, u2: 0, u3: 0})
        assert sp.simplify(g) == 0, "symmetric point is not critical"

    d = sp.simplify(dist(pts[0], pts[1]).subs({u1: 0, u2: 0}))
    # edge leaves along +x from the point at angle pi/6 on circle 1
    phi = sp.pi / 6
    c = 2 / sp.cos(phi)
    k = sp.symbols("k", positive=True)
    kstar = [r for r in sp.solve(sp.Eq(k, k / (1 + d * k) + c), k)
             if sp.N(r) > 0][0]
    lam = sp.log(1 + d * kstar)

    fam = three_circle_family()
    orb = find_periodic_orbit(Word((1, 2, 3)), fam, 0.0)
    rep = lyapunov_estimate(orb)
    check("triangle flight", sp.N(d, 30), orb.records.d[0])
    check("triangle flight literal", sp.N(6 - s3, 30), orb.records.d[0])
    check("triangle phi", sp.N(phi, 30), orb.records.phi[0])
    check("triangle lambda", sp.N(lam, 30), rep.lambda_m)
    print(f"  [frozen] triangle flight  d      = {float(sp.N(d, 20)):.16g}")
    print(f"  [frozen] triangle lambda         = {float(sp.N(lam, 20)):.16g}")


def closed_form_ellipse():
    # axis-ratio ellipse (a,b): curvature a b / speed^3
    a, b, u = sp.symbols("a b u", positive=True)
    x = a * sp.cos(u)
    y = b * sp.sin(u)
    num = sp.diff(x, u) * sp.diff(y, u, 2) - sp.diff(y, u) * sp.diff(x, u, 2)
    speed2 = sp.diff(x, u) ** 2 + sp.diff(y, u) ** 2
    kap = sp.simplify(num / speed2 ** sp.Rational(3, 2))
    kap_0 = kap.subs({a: 2, b: 1, u: 0})
    kap_90 = kap.subs({a: 2, b: 1, u: sp.pi / 2})

    fam = DeformationFamily((ellipse(0.0, 0.0, 2.0, 1.0),
                             circle(8.0, 0.0, 1.0)), 0.1, mode="period2")
    check("ellipse kappa(0)", sp.N(kap_0, 30), curvature(fam, 1, 0.0, 0.0))
    check("ellipse kappa(pi/2)", sp.N(kap_90, 30),
          curvature(fam, 1, math.pi / 2, 0.0))


def closed_form_pair_extremes():
    # two circles: the boundary distance ranges over |c_i - c_k| -+ (r_i + r_k)
    gap = sp.sqrt(sp.Integer(3) ** 2 + sp.Integer(5) ** 2)
    reach = sp.Rational(1, 2) + sp.Rational(5, 4)
    fam = DeformationFamily((circle(1.0, 2.0, 0.5), circle(4.0, 7.0, 1.25)),
                            0.1, mode="period2")
    lo, hi = boundary_pair_extremes(fam, 1, 2, 0.0)
    check("pair extremes d_min", sp.N(gap - reach, 30), lo)
    check("pair extremes d_max", sp.N(gap + reach, 30), hi)


def closed_form_breathe_eclipse_margin():
    # shipped breathe table: obstacle 1 (radius 1 + a/4) is nearest the
    # hull of the unit circles 2 and 3, whose tangent line lies 3 sqrt(3)
    # - 1 from its centre.  The margin is a maximum over directions
    # resolved to about 1e-9 rad at a kink of the separation, so its
    # error is a few 1e-9.
    a = sp.symbols("a", nonnegative=True)
    margin = 3 * sp.sqrt(3) - 2 - a / 4
    fam = DeformationFamily(
        (circle(0.0, 0.0, (1.0, 0.25)), circle(6.0, 0.0, 1.0),
         circle(3.0, 3.0 * math.sqrt(3.0), 1.0)), 0.4)
    for alpha in (sp.Integer(0), sp.Rational(2, 5)):
        check(f"breathe eclipse margin a={float(alpha)}",
              sp.N(margin.subs(a, alpha), 30),
              check_no_eclipse(fam, float(alpha)).margin, tol=1e-8)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-9,
                    help="max |closed form - library| accepted")
    args = ap.parse_args()

    closed_form_two_circle()
    closed_form_two_circle_translate()
    closed_form_three_circle_pair()
    closed_form_triangle()
    closed_form_ellipse()
    closed_form_pair_extremes()
    closed_form_breathe_eclipse_margin()

    bad = 0
    print(f"{'check':<34} {'closed form':>22} {'library':>22} {'diff':>10}")
    for name, exact, got, diff, tol in CHECKS:
        flag = "ok" if diff <= max(tol, args.tol) else "MISMATCH"
        bad += flag != "ok"
        print(f"{name:<34} {exact:>22.15g} {got:>22.15g} {diff:>10.2e} {flag}")
    print(f"{len(CHECKS)} checks, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
