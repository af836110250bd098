"""Curvature recursion, exponent estimates, their alpha-derivatives, and
the independent Jacobian oracle."""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from billiard_lab import (BilliardOrbit, GeometryError, Word,
                          default_seed_curvature, enumerate_cyclic_words,
                          f_derivative_sum, find_orbit_segment, find_orbits,
                          find_periodic_orbit, front_expansion_check,
                          jacobian_lyapunov_oracle, kdot_trace,
                          lyapunov_estimate, orbit_alpha_derivatives,
                          periodic_curvature_fixed_point, propagate_curvature,
                          sample_itinerary, seed_sensitivity, table_bounds)

from billiard_lab.experiments import solve_word

from conftest import (static_three_circle, static_two_circle,
                      translate_two_circle)

SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _two_circle_orbit():
    fam = static_two_circle()
    return fam, find_periodic_orbit(Word((1, 2)), fam, 0.0)


@functools.lru_cache(maxsize=None)
def _segment_fixture(length=40, seed=7):
    fam = static_three_circle()
    word = sample_itinerary(3, length, seed=seed)
    return fam, word, find_orbit_segment(word, fam, 0.0)


@functools.lru_cache(maxsize=None)
def _three_circle_bounds():
    return table_bounds(static_three_circle(), 0.0)


# ------------------------------------------------------ the recursion

def test_propagate_curvature_first_steps_exact():
    _, orb = _two_circle_orbit()
    tr = propagate_curvature(orb, 2.0, steps=3)
    # 2 -> 2/5 + 2 -> (2.4/(1+4.8)) + 2
    np.testing.assert_allclose(tr.k, [2.0, 2.4, 2.4 / 5.8 + 2.0], atol=1e-15)
    np.testing.assert_allclose(tr.delta[0], 0.2, atol=1e-15)
    assert tr.seed_k0 == 2.0


def test_propagate_curvature_validates():
    fam, word, orb = _segment_fixture()
    with pytest.raises(GeometryError):
        propagate_curvature(orb, 0.0)
    with pytest.raises(ValueError):
        propagate_curvature(orb, 2.0, steps=len(orb.records) + 1)
    for steps in (0, -1):
        with pytest.raises(ValueError, match="must lie in 1"):
            propagate_curvature(orb, 2.0, steps=steps)


def test_periodic_fixed_point_two_circle():
    _, orb = _two_circle_orbit()
    tr = periodic_curvature_fixed_point(orb)
    np.testing.assert_allclose(tr.k, 1.0 + SQRT2, atol=1e-12)
    np.testing.assert_allclose(tr.delta, 1.0 / (3.0 + 2.0 * SQRT2), atol=1e-12)
    assert math.isnan(tr.seed_k0)


def test_periodic_fixed_point_closes_the_cycle():
    fam = static_three_circle()
    orb = find_periodic_orbit(Word((1, 2, 3, 2)), fam, 0.0)
    tr = periodic_curvature_fixed_point(orb)
    rec = orb.records
    p = len(rec)
    for j in range(p):
        nxt = (j + 1) % p
        g = 2.0 * rec.kappa[nxt] / math.cos(rec.phi[nxt])
        expect = tr.k[j] / (1.0 + rec.d[j] * tr.k[j]) + g
        assert tr.k[nxt] == pytest.approx(expect, abs=1e-12)
    with pytest.raises(ValueError):
        periodic_curvature_fixed_point(_segment_fixture()[2])


def _cycle_of(d, g):
    """A stand-in periodic orbit whose flights are d and whose reflection
    kicks 2 kappa / cos phi are g (phi = 0, so g is exact)."""
    records = SimpleNamespace(d=np.array(d), kappa=np.array(g) / 2.0,
                              phi=np.zeros(len(d)))
    return SimpleNamespace(kind="periodic", records=records)


def _iterated_fixed_point(d, g):
    """The cycle's curvatures by plain iteration of the recursion: the
    reference for the closed form.  With d, g >= 0.5 every flight
    contracts the curvature error by delta^2 <= 0.64, so 100 sweeps
    leave only rounding."""
    p = len(d)
    k = list(g)
    for _ in range(100):
        for j in range(p):
            k[(j + 1) % p] = k[j] / (1.0 + d[j] * k[j]) + g[(j + 1) % p]
    return np.array(k)


_LONG_RNG = np.random.default_rng(400)
_LONG_CYCLE = (_LONG_RNG.uniform(0.5, 10.0, 400).tolist(),
               _LONG_RNG.uniform(0.5, 10.0, 400).tolist())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).flatmap(lambda p: st.tuples(
    st.lists(st.floats(0.5, 10.0), min_size=p, max_size=p),
    st.lists(st.floats(0.5, 10.0), min_size=p, max_size=p))))
@example(_LONG_CYCLE)
def test_cycle_closure_is_the_fixed_point(dg):
    d, g = dg
    p = len(d)
    tr = periodic_curvature_fixed_point(_cycle_of(d, g))
    # finite even for the 400-cycle, whose unscaled product overflows
    assert np.isfinite(tr.k).all() and np.isfinite(tr.delta).all()
    assert tr.k[0] > 0.0 and len(tr.k) == len(tr.delta) == p
    # one more flight from k[p-1] returns to k[0]
    closed = tr.k[-1] * tr.delta[-1] + g[0]
    assert closed == pytest.approx(tr.k[0], rel=1e-13, abs=0.0)
    np.testing.assert_allclose(tr.k, _iterated_fixed_point(d, g),
                               rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(tr.delta, 1.0 / (1.0 + np.array(d) * tr.k))


# -------------------------------------------------------- estimates

def test_two_circle_estimate_frozen():
    fam, orb = _two_circle_orbit()
    rep = lyapunov_estimate(orb, bounds=table_bounds(fam, 0.0))
    assert rep.lambda_m == pytest.approx(math.log(3.0 + 2.0 * SQRT2),
                                         abs=1e-12)
    assert rep.m == 2
    assert seed_sensitivity(orb) == 0.0
    assert rep.lower == pytest.approx(math.log(5.0), abs=1e-9)
    assert rep.upper == pytest.approx(math.log(6.0), abs=1e-9)
    assert rep.lower <= rep.lambda_m <= rep.upper
    np.testing.assert_array_equal(rep.trace.k,
                                  periodic_curvature_fixed_point(orb).k)


def test_triangle_estimate_frozen():
    orb = find_periodic_orbit(Word((1, 2, 3)), static_three_circle(), 0.0)
    rep = lyapunov_estimate(orb)
    # sympy closed form via the symmetric critical chain
    assert rep.lambda_m == pytest.approx(2.465677549686425, abs=1e-12)


def test_segment_estimate_window_and_diagnostics():
    fam, word, orb = _segment_fixture()
    rep = lyapunov_estimate(orb, burn_in=5, m=35)
    assert rep.m == 30
    # the mean of flights 5..34 of the trace
    assert rep.lambda_m == pytest.approx(
        float(np.mean(-np.log(rep.trace.delta[5:]))), abs=1e-14)
    # transient forgotten well before m
    assert seed_sensitivity(orb, burn_in=5, m=35) < 1e-9
    # the report carries the trace it averaged, from the default seed
    want = propagate_curvature(orb, default_seed_curvature(orb), 35)
    np.testing.assert_array_equal(rep.trace.k, want.k)
    np.testing.assert_array_equal(rep.trace.delta, want.delta)
    with pytest.raises(ValueError):
        lyapunov_estimate(orb, m=len(orb.records) + 1)
    with pytest.raises(ValueError):
        lyapunov_estimate(orb, burn_in=35, m=35)


def test_estimate_refuses_bounds_at_another_alpha():
    fam, word, orb = _segment_fixture()
    with pytest.raises(ValueError, match="bounds at alpha = 0.1"):
        lyapunov_estimate(orb, bounds=table_bounds(fam, 0.1))


def test_estimate_within_a_priori_bracket():
    tb = _three_circle_bounds()
    lo, hi = tb.lower, tb.upper
    fam, word, orb = _segment_fixture()
    rep = lyapunov_estimate(orb, bounds=tb)
    assert lo <= rep.lambda_m <= hi
    orb2 = find_periodic_orbit(Word((1, 2, 3)), fam, 0.0)
    assert lo <= lyapunov_estimate(orb2).lambda_m <= hi


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 5e-2])
def test_cycles_stay_in_the_bracket_near_the_eclipse_threshold(eps):
    # three unit disks at the corners of an equilateral triangle eclipse
    # at side 4/sqrt(3); just above it the table still certifies, every
    # prime cycle up to period 8 solves in one batch, and each exponent
    # lies in the certified bracket
    fam = static_three_circle(4.0 / math.sqrt(3.0) + eps)
    tb = table_bounds(fam, 0.0)
    words = enumerate_cyclic_words(3, 8)
    assert len(words) == 71
    for word, orbit in zip(words, find_orbits(words, fam, 0.0)):
        assert isinstance(orbit, BilliardOrbit), (word.label, orbit)
        lam = lyapunov_estimate(orbit, bounds=tb).lambda_m
        assert tb.lower <= lam <= tb.upper, (word.label, lam)


@settings(max_examples=25)
@given(frac_a=st.floats(0.0, 1.0), frac_b=st.floats(0.0, 1.0))
def test_seed_forgetting_contraction(frac_a, frac_b):
    # two seeds inside [k_min, k_max] stay within beta_max^m of each other
    fam, word, orb = _segment_fixture()
    tb = _three_circle_bounds()
    ka = tb.k_min + frac_a * (tb.k_max - tb.k_min)
    kb = tb.k_min + frac_b * (tb.k_max - tb.k_min)
    ta = propagate_curvature(orb, ka)
    tc = propagate_curvature(orb, kb)
    beta_max = 1.0 / (1.0 + tb.d_min * tb.k_min) ** 2
    gap0 = abs(ka - kb)
    for j in range(len(ta.k)):
        bound = beta_max ** j * gap0
        assert abs(ta.k[j] - tc.k[j]) <= bound * (1.0 + 1e-12) + 1e-15


# -------------------------------------------------- alpha-derivatives

def test_translation_kdot_and_F_closed_form():
    fam = translate_two_circle()
    orb = find_periodic_orbit(Word((1, 2)), fam, 0.0)
    tr = periodic_curvature_fixed_point(orb)
    dv = orbit_alpha_derivatives(orb, fam)
    kd = kdot_trace(orb, dv, tr)
    np.testing.assert_allclose(kd.k_dot, -SQRT2 / 8.0, atol=1e-12)
    np.testing.assert_allclose(kd.beta, tr.delta ** 2, atol=1e-15)
    F, f_dot = f_derivative_sum(orb, dv, tr, kd)
    assert F == pytest.approx(SQRT2 / 4.0, abs=1e-12)
    np.testing.assert_allclose(f_dot, SQRT2 / 4.0, atol=1e-12)


def test_kdot_recursion_identity_periodic():
    fam = static_three_circle()
    orb = find_periodic_orbit(Word((1, 2, 3)), fam, 0.0)
    tr = periodic_curvature_fixed_point(orb)
    dv = orbit_alpha_derivatives(orb, fam)
    kd = kdot_trace(orb, dv, tr)
    p = len(tr.k)
    for j in range(p):
        expect = kd.beta[j] * kd.k_dot[j] + kd.forcing[j]
        assert kd.k_dot[(j + 1) % p] == pytest.approx(expect, abs=1e-12)


def test_segment_kdot_starts_at_zero_and_F_matches_fd():
    fam, word, orb = _segment_fixture(length=20, seed=4)
    tr = propagate_curvature(orb, default_seed_curvature(orb))
    dv = orbit_alpha_derivatives(orb, fam)
    kd = kdot_trace(orb, dv, tr)
    assert kd.k_dot[0] == 0.0
    F, _ = f_derivative_sum(orb, dv, tr, kd, burn_in=0, m=20)
    h = 1e-5
    lam = {}
    for s in (+1, -1):
        o = find_orbit_segment(word, fam, s * h)
        lam[s] = lyapunov_estimate(o, burn_in=0, m=20).lambda_m
    assert F == pytest.approx((lam[+1] - lam[-1]) / (2.0 * h), abs=1e-8)


def _loop_propagate(d, g, k0, steps):
    """The curvature recursion flight by flight on NumPy scalars: the
    reference for ``propagate_curvature``."""
    p = len(d)
    k = np.empty(steps)
    delta = np.empty(steps)
    k[0] = k0
    for j in range(steps):
        delta[j] = 1.0 / (1.0 + d[j % p] * k[j])
        if j + 1 < steps:
            k[j + 1] = k[j] * delta[j] + g[(j + 1) % p]
    return k, delta


def _loop_kdot(periodic, delta, k, d_dot, g_dot):
    """The k_dot recursion and its forcing element by element on NumPy
    scalars: the reference for ``kdot_trace``."""
    p = len(k)
    beta = delta ** 2
    forcing = np.empty(p)
    for j in range(p):
        forcing[j] = -beta[j] * d_dot[j] * (k[j] * k[j]) + g_dot[(j + 1) % p]
    k_dot = np.empty(p)
    k_dot[0] = 0.0
    if periodic:
        acc = 0.0
        for j in range(p):
            acc = beta[j] * acc + forcing[j]
        k_dot[0] = acc / (1.0 - float(np.prod(beta)))
    for j in range(p - 1):
        k_dot[j + 1] = beta[j] * k_dot[j] + forcing[j]
    return k_dot, beta, forcing


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


@pytest.mark.parametrize("cfg_name", ["breathe_cfg", "mixed_cfg"])
def test_recursions_on_floats_equal_the_scalar_loops(cfg_name, request):
    cfg = request.getfixturevalue(cfg_name)
    for alpha in (0.0, 0.25):
        for _, word in cfg.words:
            orb = solve_word(cfg, word, alpha)
            d = orb.records.d
            g = 2.0 * orb.records.kappa / np.array(
                [math.cos(phi) for phi in orb.records.phi.tolist()])
            k0 = default_seed_curvature(orb)
            steps = (3 * len(d),) if orb.kind == "periodic" else (len(d), 5)
            for n in steps:
                tr = propagate_curvature(orb, k0, n)
                assert [_hex(tr.k), _hex(tr.delta)] \
                    == [_hex(x) for x in _loop_propagate(d, g, k0, n)]
            tr = lyapunov_estimate(orb).trace
            dv = orbit_alpha_derivatives(orb, cfg.family)
            kd = kdot_trace(orb, dv, tr)
            want = _loop_kdot(orb.kind == "periodic", tr.delta, tr.k,
                              dv.d_dot, dv.g_dot)
            assert [_hex(kd.k_dot), _hex(kd.beta), _hex(kd.forcing)] \
                == [_hex(x) for x in want]


def test_trace_length_mismatch_rejected():
    fam, word, orb = _segment_fixture(length=20, seed=4)
    dv = orbit_alpha_derivatives(orb, fam)
    short = propagate_curvature(orb, 2.0, steps=10)
    with pytest.raises(ValueError):
        kdot_trace(orb, dv, short)


# ------------------------------------------------------------- oracle

def test_oracle_matches_periodic_estimates():
    fam, orb = _two_circle_orbit()
    lam = jacobian_lyapunov_oracle(Word((1, 2)), fam, 0.0, orbit=orb)
    assert lam == pytest.approx(math.log(3.0 + 2.0 * SQRT2), abs=1e-9)
    fam3 = static_three_circle()
    orb3 = find_periodic_orbit(Word((1, 2, 3)), fam3, 0.0)
    lam3 = jacobian_lyapunov_oracle(Word((1, 2, 3)), fam3, 0.0, orbit=orb3)
    assert lam3 == pytest.approx(2.465677549686425, abs=1e-9)


def test_oracle_matches_segment_estimate_on_full_window():
    fam, word, orb = _segment_fixture(length=30, seed=6)
    m = len(orb.records)
    lam_rec = lyapunov_estimate(orb, burn_in=0, m=m).lambda_m
    lam_jac = jacobian_lyapunov_oracle(word, fam, 0.0, m=m, orbit=orb,
                                       burn_in=0)
    assert lam_jac == pytest.approx(lam_rec, abs=1e-8)


def test_estimate_and_oracle_share_the_default_window(breathe_cfg):
    # called with their defaults on one solved segment, both discard the
    # same burn-in, so they agree to the oracle's differencing error
    fam = breathe_cfg.family
    word = sample_itinerary(3, 40, seed=7)
    orb = find_orbit_segment(word, fam, 0.0)
    lam = lyapunov_estimate(orb).lambda_m
    assert jacobian_lyapunov_oracle(word, fam, 0.0, orbit=orb) \
        == pytest.approx(lam, abs=1e-8)


def test_oracle_validates_inputs():
    fam, word, orb = _segment_fixture(length=20, seed=4)
    with pytest.raises(ValueError):
        jacobian_lyapunov_oracle(word, fam, 0.0, h=1e-3, orbit=orb)
    with pytest.raises(ValueError):
        jacobian_lyapunov_oracle(word, fam, 0.0, m=21, orbit=orb)
    with pytest.raises(ValueError):
        jacobian_lyapunov_oracle(word, fam, 0.0, m=5, burn_in=5, orbit=orb)


def test_oracle_refuses_an_orbit_of_another_word_or_alpha():
    fam, word, orb = _segment_fixture(length=20, seed=4)
    other = sample_itinerary(3, 20, seed=5)
    with pytest.raises(ValueError, match="given for"):
        jacobian_lyapunov_oracle(other, fam, 0.0, orbit=orb)
    with pytest.raises(ValueError, match="given for"):
        jacobian_lyapunov_oracle(word, fam, 0.1, orbit=orb)


@pytest.mark.parametrize("window", [dict(m=1), dict(burn_in=1),
                                    dict(m=2, burn_in=1)])
def test_periodic_orbits_refuse_a_partial_window(window):
    # a two-circle orbit has period 2; averaging it over anything but the
    # full period would silently ignore the window
    fam, orb = _two_circle_orbit()
    tr = periodic_curvature_fixed_point(orb)
    dv = orbit_alpha_derivatives(orb, fam)
    kd = kdot_trace(orb, dv, tr)
    with pytest.raises(ValueError, match="full period"):
        lyapunov_estimate(orb, **window)
    with pytest.raises(ValueError, match="full period"):
        f_derivative_sum(orb, dv, tr, kd, **window)
    with pytest.raises(ValueError, match="full period"):
        jacobian_lyapunov_oracle(Word((1, 2)), fam, 0.0, orbit=orb, **window)
    # the full period, spelled out, is accepted
    full = dict(m=2, burn_in=0)
    assert lyapunov_estimate(orb, **full).lambda_m \
        == lyapunov_estimate(orb).lambda_m
    assert f_derivative_sum(orb, dv, tr, kd, **full)[0] \
        == f_derivative_sum(orb, dv, tr, kd)[0]
    assert jacobian_lyapunov_oracle(Word((1, 2)), fam, 0.0, orbit=orb, **full) \
        == jacobian_lyapunov_oracle(Word((1, 2)), fam, 0.0, orbit=orb)


# -------------------------------------------------------- front check

def test_front_check_two_circle_tight():
    fam, orb = _two_circle_orbit()
    tr = periodic_curvature_fixed_point(orb)
    rep = front_expansion_check(orb, fam, tr)
    assert abs(rep.ratio - 1.0) < 1e-9
    assert rep.steps == 8
    assert rep.measured_log == pytest.approx(rep.predicted_log, abs=1e-9)


def test_front_check_segment_all_flights():
    fam, word, orb = _segment_fixture(length=20, seed=4)
    tr = propagate_curvature(orb, default_seed_curvature(orb))
    rep = front_expansion_check(orb, fam, tr, steps=len(orb.records))
    assert abs(rep.ratio - 1.0) < 1e-3
    small = front_expansion_check(orb, fam, tr, steps=6)
    assert abs(small.ratio - 1.0) < 1e-4


def test_front_check_validates():
    fam, word, orb = _segment_fixture(length=20, seed=4)
    tr = propagate_curvature(orb, default_seed_curvature(orb))
    with pytest.raises(ValueError):
        front_expansion_check(orb, fam, tr, steps=len(orb.records) + 1)
    with pytest.raises(ValueError):
        front_expansion_check(orb, fam, tr, eps=1.0)
