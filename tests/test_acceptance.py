"""End-to-end acceptance runs over the shipped configurations: closed-form
exponents, oracle agreement, front checks, a priori brackets, seed
forgetting, exact derivatives, continuity and differentiability of the
exponent along deformations, and byte-level determinism.

Each test asserts its numeric tolerance and its wall-clock budget, then
prints one [criterion N] line with the measured time (visible with -s)."""

import math
import time

import numpy as np
import pytest

from billiard_lab import (Word, front_expansion_check,
                          jacobian_lyapunov_oracle, lyapunov_estimate,
                          orbit_alpha_derivatives,
                          periodic_curvature_fixed_point, propagate_curvature,
                          sample_itinerary)
from billiard_lab.cli import main
from billiard_lab.experiments import (analyze_orbit, effective_burn_in,
                                      run_derivative, run_sweep, solve_word)
from billiard_lab.geometry import table_bounds

from conftest import CONFIGS

TWO_PI = 2.0 * math.pi


def _report(n, elapsed, budget, desc):
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {n} exceeded its {budget:g}s budget: {elapsed:.2f}s")
    print(f"[criterion {n:>2}] PASS ({elapsed:6.2f}s) {desc}")


def _orbit_trace(orbit):
    if orbit.kind == "periodic":
        return periodic_curvature_fixed_point(orbit)
    return propagate_curvature(orbit, 2.0 * orbit.records.kappa[0])


def test_criterion_01_two_circle_closed_form(capsys):
    t0 = time.perf_counter()
    rc = main(["lyapunov", "--config",
               str(CONFIGS / "two_circles_translate.cfg"), "--word", "1-2"])
    out = capsys.readouterr().out
    assert rc == 0
    line = next(l for l in out.splitlines() if l.startswith("lambda = "))
    lam = float(line.split()[2])
    target = math.log(3.0 + 2.0 * math.sqrt(2.0))
    assert abs(lam - target) < 1e-9
    with capsys.disabled():
        _report(1, time.perf_counter() - t0, 1.0,
                f"two unit circles, word 1-2: lambda = {lam:.12f}, "
                f"|lambda - log(3+2*sqrt2)| = {abs(lam - target):.1e}")


def test_criterion_02_three_circle_closed_form(breathe_cfg):
    t0 = time.perf_counter()
    orbit = solve_word(breathe_cfg, Word((1, 2)), 0.0)
    lam = lyapunov_estimate(orbit).lambda_m
    target = math.log(5.0 + 2.0 * math.sqrt(6.0))
    assert abs(lam - target) < 1e-9
    _report(2, time.perf_counter() - t0, 1.0,
            f"equilateral side 6, word 1-2: lambda = {lam:.12f}, "
            f"|lambda - log(5+2*sqrt6)| = {abs(lam - target):.1e}")


def test_criterion_03_oracle_equivalence(breathe_cfg):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        word = sample_itinerary(3, 50, seed)
        orbit = solve_word(breathe_cfg, word, 0.0)
        lam_rec = lyapunov_estimate(orbit, burn_in=0, m=50).lambda_m
        lam_orc = jacobian_lyapunov_oracle(word, breathe_cfg.family, 0.0,
                                           m=50, h=breathe_cfg.h_fd,
                                           orbit=orbit, burn_in=0)
        diff = abs(lam_rec - lam_orc)
        assert diff < 1e-5
        worst = max(worst, diff)
    _report(3, time.perf_counter() - t0, 30.0,
            f"20 length-50 itineraries: worst |recursion - Jacobian oracle| "
            f"= {worst:.2e}")


def test_criterion_04_front_expansion(two_circle_cfg, breathe_cfg, mixed_cfg):
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for cfg in (two_circle_cfg, breathe_cfg, mixed_cfg):
        for ident, word in cfg.words:
            orbit = solve_word(cfg, word, 0.0)
            rep = front_expansion_check(orbit, cfg.family, _orbit_trace(orbit))
            assert rep.steps <= 8
            assert abs(rep.ratio - 1.0) < 1e-3, (ident, rep.ratio)
            worst = max(worst, abs(rep.ratio - 1.0))
            count += 1
    _report(4, time.perf_counter() - t0, 5.0,
            f"{count} shipped words, real pencil vs delta product: worst "
            f"|ratio - 1| = {worst:.2e}")


def test_criterion_05_bracket_membership(two_circle_cfg, breathe_cfg,
                                         mixed_cfg):
    t0 = time.perf_counter()
    checked = 0
    for cfg in (two_circle_cfg, breathe_cfg, mixed_cfg):
        b = cfg.family.alpha_max
        alphas = (0.0, 0.5 * b, b)
        for alpha, tb in zip(alphas, table_bounds(cfg.family, alphas,
                                                  cfg.phi_max)):
            lo, hi = tb.lower, tb.upper
            for ident, word in cfg.words:
                orbit = solve_word(cfg, word, alpha)
                burn = None if orbit.kind == "periodic" \
                    else effective_burn_in(orbit, cfg)
                lam = lyapunov_estimate(orbit, burn_in=burn).lambda_m
                assert lo - 1e-12 <= lam <= hi + 1e-12, (ident, alpha, lam)
                checked += 1
    _report(5, time.perf_counter() - t0, 10.0,
            f"{checked} estimates inside [log(1+d_min k_min), "
            f"log(1+d_max k_max)] after burn-in")


def test_criterion_06_seed_forgetting(two_circle_cfg, breathe_cfg, mixed_cfg):
    t0 = time.perf_counter()
    steps_checked = 0
    orbits = 0
    for cfg, n_words in ((two_circle_cfg, 1), (breathe_cfg, 3),
                         (mixed_cfg, 2)):
        tb, = table_bounds(cfg.family, [0.0], cfg.phi_max)
        beta_max = 1.0 / (1.0 + tb.d_min * tb.k_min) ** 2
        gap0 = tb.k_max - tb.k_min
        for seed in range(n_words):
            word = sample_itinerary(cfg.family.z0, 60, seed=100 + seed)
            orbit = solve_word(cfg, word, 0.0)
            ka = propagate_curvature(orbit, tb.k_min).k
            kb = propagate_curvature(orbit, tb.k_max).k
            for m_i in range(len(ka)):
                allowed = beta_max ** m_i * gap0 * (1.0 + 1e-12) + 1e-15
                assert abs(ka[m_i] - kb[m_i]) <= allowed, (seed, m_i)
                steps_checked += 1
            orbits += 1
    _report(6, time.perf_counter() - t0, 5.0,
            f"{orbits} length-60 orbits: extreme-seed gap under "
            f"beta_max^m (k_max - k_min) at all {steps_checked} steps")


def test_criterion_07_derivative_exactness(two_circle_cfg):
    t0 = time.perf_counter()
    orbit = solve_word(two_circle_cfg, Word((1, 2)), 0.0)
    f0 = analyze_orbit(two_circle_cfg, orbit)["F_m"]
    target = math.sqrt(2.0) / 4.0
    assert abs(f0 - target) < 1e-9
    h = 1e-4
    lam = {}
    for a in (h, -h):
        lam[a] = lyapunov_estimate(
            solve_word(two_circle_cfg, Word((1, 2)), a)).lambda_m
    slope = (lam[h] - lam[-h]) / (2.0 * h)
    assert abs(slope - f0) < 1e-6
    _report(7, time.perf_counter() - t0, 2.0,
            f"translation family: F = {f0:.12f} "
            f"(|F - sqrt2/4| = {abs(f0 - target):.1e}), central slope at "
            f"h=1e-4 off by {abs(slope - f0):.1e}")


def test_criterion_08_continuity_modulus(two_circle_cfg, breathe_cfg,
                                         mixed_cfg):
    t0 = time.perf_counter()
    worst = -math.inf
    dt_large = math.nan
    for cfg in (two_circle_cfg, breathe_cfg, mixed_cfg):
        s0 = time.perf_counter()
        result = run_sweep(cfg)
        elapsed = time.perf_counter() - s0
        if cfg is breathe_cfg:
            dt_large = elapsed   # the stated budget names this sweep
            assert elapsed < 60.0
        assert not result.failures
        assert result.summary["continuity_ok"]
        for ident, ws in result.summary["words"].items():
            assert ws["continuity_ok"], ident
            worst = max(worst, ws["max_continuity_defect"])
    _report(8, time.perf_counter() - t0, None,
            f"all sweeps obey the observed modulus, worst defect "
            f"{worst:.2e}; 65-point 10-word sweep took {dt_large:.1f}s "
            f"(< 60s)")


def test_criterion_09_differentiability(two_circle_cfg, breathe_cfg,
                                        mixed_cfg):
    t0 = time.perf_counter()
    slopes = []
    probes = [(two_circle_cfg, "1-2"), (breathe_cfg, "1-2"),
              (breathe_cfg, "sample:40:7"), (mixed_cfg, "1-2-3")]
    for cfg, ident in probes:
        rows, summary = run_derivative(cfg, dict(cfg.words)[ident])
        assert summary["ok"], ident
        assert math.isfinite(summary["k_fit"])
        b = cfg.family.alpha_max
        decade = [r for r in rows
                  if any(abs(r.alpha - f * b) < 1e-12
                         for f in (1e-1, 1e-2, 1e-3))]
        assert len(decade) == 3
        pts = [(math.log(r.alpha), math.log(r.defect))
               for r in decade if r.defect > 1e-14]
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            slope = float(np.polyfit(xs, ys, 1)[0])
            assert slope >= 0.9, (ident, slope)
            slopes.append(slope)
    _report(9, time.perf_counter() - t0, 60.0,
            f"{len(probes)} probes: secant defect shrinks linearly, decade "
            f"decay rates {', '.join(f'{s:.3f}' for s in slopes)}")


def _fd_record_fields(op, om, h):
    rp, rm = op.records, om.records
    du = (rp.u - rm.u + math.pi) % TWO_PI - math.pi
    return (du / (2.0 * h),
            (rp.d - rm.d) / (2.0 * h),
            (rp.kappa - rm.kappa) / (2.0 * h),
            (np.cos(rp.phi) - np.cos(rm.phi)) / (2.0 * h),
            (2.0 * rp.kappa / np.cos(rp.phi)
             - 2.0 * rm.kappa / np.cos(rm.phi)) / (2.0 * h))


def test_criterion_10_implicit_derivative_oracle(two_circle_cfg, breathe_cfg,
                                                 mixed_cfg):
    t0 = time.perf_counter()
    h = 1e-5
    checked = 0
    worst = -math.inf
    for cfg in (two_circle_cfg, breathe_cfg, mixed_cfg):
        for ident, word in cfg.words:
            init = None
            for alpha in cfg.alpha_grid:
                alpha = float(alpha)
                orbit = solve_word(cfg, word, alpha, init=init)
                init = np.asarray(orbit.chain_us)
                derivs = orbit_alpha_derivatives(orbit, cfg.family)
                op = solve_word(cfg, word, alpha + h, init=init)
                om = solve_word(cfg, word, alpha - h, init=init)
                fd = _fd_record_fields(op, om, h)
                exact = (derivs.u_dot, derivs.d_dot, derivs.kappa_dot,
                         derivs.cosphi_dot, derivs.g_dot)
                for a, b in zip(exact, fd):
                    margin = float(np.max(
                        np.abs(a - b)
                        - 1e-6 * (1.0 + np.maximum(np.abs(a), np.abs(b)))))
                    assert margin <= 0.0, (ident, alpha)
                    worst = max(worst, margin)
                checked += 1
    _report(10, time.perf_counter() - t0, 30.0,
            f"{checked} sweep orbits x 5 derivative fields vs re-solved "
            f"differences at h=1e-5, worst margin {worst:.1e}")


def test_criterion_11_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    two = str(CONFIGS / "two_circles_translate.cfg")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", two, "--out", str(a)]) == 0
    assert main(["sweep", "--config", two, "--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("sweep.csv", "bounds.csv", "plot.gp"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    with capsys.disabled():
        _report(11, time.perf_counter() - t0, None,
                "repeated sweeps produce byte-identical CSV and plot files")
